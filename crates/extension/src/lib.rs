//! # sbdms-extension — the extension layer of the Service-Based DBMS
//!
//! Paper Fig. 2, top layer: "Extension Services allow users to design
//! tailored extensions to manage different data types, such as XML files
//! or streaming data, or integrate their own application specific
//! services" — the figure lists "streaming, XML, procedures, queries,
//! replication". Replication is not provided here (log shipping is a
//! deferred roadmap item).
//!
//! * [`xml`]: an XML parser, path queries, and a heap-backed document
//!   store ([`xml::XmlService`]),
//! * [`stream`]: keyed event streams with tumbling-window aggregation
//!   ([`stream::StreamService`]),
//! * [`procedures`]: named, parameterised, transactional SQL programs
//!   ([`procedures::ProcedureService`]),
//! * [`monitoring`]: the paper's §4 customised storage-monitoring service
//!   ([`monitoring::StorageMonitorService`]).

#![warn(missing_docs)]

pub mod monitoring;
pub mod procedures;
pub mod stream;
pub mod xml;

pub use monitoring::{GovernorMonitorService, StorageMonitorService};
pub use procedures::{ProcedureEngine, ProcedureService};
pub use stream::{StreamEngine, StreamService, WindowAgg};
pub use xml::{parse_xml, XmlService, XmlStore};
