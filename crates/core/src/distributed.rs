//! Simulated distribution: devices, link latency, proximity composition,
//! and low-resource workload redirection.
//!
//! Paper §4: "storage services can be dynamically composed in a
//! distributed environment, according to the current location of the
//! client to reduce latency times" and "in case of a low resource alert,
//! which can be caused by low battery capacity or high computation load,
//! our SBDMS architecture can direct the workload to other devices to
//! maintain the system operational."
//!
//! Per DESIGN.md §4, devices are simulated: each hosts a storage replica
//! service, sits in a numeric *zone* (link latency grows with zone
//! distance), and has a battery budget that drains per request.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::Mutex;
use sbdms_kernel::bus::ServiceBus;
use sbdms_kernel::contract::Contract;
use sbdms_kernel::error::{Result, ServiceError};
use sbdms_kernel::events::Event;
use sbdms_kernel::interface::{Interface, Operation, Param};
use sbdms_kernel::property::PropertyStore;
use sbdms_kernel::resilience::BreakerState;
use sbdms_kernel::resource::ResourceManager;
use sbdms_kernel::service::{FnService, ServiceId};
use sbdms_kernel::value::{TypeTag, Value};

/// Per-zone-distance one-way latency.
const ZONE_LATENCY: Duration = Duration::from_micros(200);

/// Spin-wait with microsecond-ish precision (sleep is too coarse).
fn precise_delay(d: Duration) {
    if d.is_zero() {
        return;
    }
    let start = Instant::now();
    while start.elapsed() < d {
        std::hint::spin_loop();
    }
}

/// A simulated device hosting a storage replica.
pub struct Device {
    /// Device name.
    pub name: String,
    /// Zone coordinate; link latency between zones a,b is
    /// `|a-b| * ZONE_LATENCY` each way.
    pub zone: i64,
    /// The hosted storage service on the cluster bus.
    pub service: ServiceId,
    /// The device's resource manager (battery).
    pub resources: ResourceManager,
}

/// How the cluster picks the device serving a client request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlacementStrategy {
    /// Nearest usable device to the client's zone (paper's proximity
    /// composition).
    Nearest,
    /// Always the first usable device (the naive baseline).
    First,
}

/// A simulated multi-device deployment sharing one bus.
pub struct Cluster {
    bus: ServiceBus,
    devices: Vec<Device>,
    /// Battery units drained per served request.
    drain_per_request: u64,
    store: Arc<Mutex<HashMap<String, String>>>,
}

impl Cluster {
    /// Build a cluster of devices at the given zones, each with a battery
    /// budget (units) and an alert threshold.
    pub fn new(zones: &[i64], battery: u64, alert_below: u64, drain_per_request: u64) -> Result<Cluster> {
        let bus = ServiceBus::new();
        // All replicas share one logical key/value dataset (a fully
        // replicated store; here the question is *placement*).
        let store: Arc<Mutex<HashMap<String, String>>> = Arc::new(Mutex::new(HashMap::new()));

        let iface = Interface::new(
            "sbdms.cluster.Replica",
            1,
            vec![
                Operation::new(
                    "get",
                    vec![Param::required("key", TypeTag::Str)],
                    TypeTag::Any,
                ),
                Operation::new(
                    "put",
                    vec![
                        Param::required("key", TypeTag::Str),
                        Param::required("value", TypeTag::Str),
                    ],
                    TypeTag::Null,
                ),
            ],
        );

        let mut devices = Vec::with_capacity(zones.len());
        for (i, &zone) in zones.iter().enumerate() {
            let name = format!("device-{i}");
            let resources = ResourceManager::new(bus.events().clone(), PropertyStore::new());
            resources.define("battery", battery, alert_below);
            let store2 = store.clone();
            let svc = FnService::new(
                &name,
                Contract::for_interface(iface.clone())
                    .describe(&format!("replica on {name} (zone {zone})"), "storage")
                    .capability("task:replica"),
                move |op, input| match op {
                    "get" => {
                        let key = input.require("key")?.as_str()?;
                        Ok(store2
                            .lock()
                            .get(key)
                            .map(|v| Value::Str(v.clone()))
                            .unwrap_or(Value::Null))
                    }
                    "put" => {
                        let key = input.require("key")?.as_str()?.to_string();
                        let value = input.require("value")?.as_str()?.to_string();
                        store2.lock().insert(key, value);
                        Ok(Value::Null)
                    }
                    other => Err(ServiceError::Internal(format!("bad op {other}"))),
                },
            )
            .into_ref();
            let service = bus.deploy(svc)?;
            devices.push(Device {
                name,
                zone,
                service,
                resources,
            });
        }
        Ok(Cluster {
            bus,
            devices,
            drain_per_request,
            store,
        })
    }

    /// The cluster bus (events carry the low-battery alerts).
    pub fn bus(&self) -> &ServiceBus {
        &self.bus
    }

    /// The devices.
    pub fn devices(&self) -> &[Device] {
        &self.devices
    }

    /// Whether a device's replica is currently fenced off by an open
    /// circuit breaker on the cluster bus.
    fn breaker_open(&self, id: ServiceId) -> bool {
        matches!(
            self.bus.resilience().breaker_state(id),
            Some(BreakerState::Open)
        )
    }

    /// Pick the serving device for a client at `client_zone`. Devices in
    /// their battery-alert region or with an open circuit breaker are
    /// skipped (workload redirection) — unless every device is impaired,
    /// in which case the nearest is used so the system stays operational.
    pub fn place(&self, client_zone: i64, strategy: PlacementStrategy) -> Result<&Device> {
        self.place_excluding(client_zone, strategy, None)
    }

    /// `place`, optionally excluding one device (used to retry a request
    /// on an alternate placement after its first device failed).
    fn place_excluding(
        &self,
        client_zone: i64,
        strategy: PlacementStrategy,
        exclude: Option<ServiceId>,
    ) -> Result<&Device> {
        fn pick(
            candidates: Vec<&Device>,
            strategy: PlacementStrategy,
            client_zone: i64,
        ) -> Option<&Device> {
            match strategy {
                PlacementStrategy::Nearest => candidates
                    .into_iter()
                    .min_by_key(|d| (d.zone - client_zone).abs()),
                PlacementStrategy::First => candidates.into_iter().next(),
            }
        }
        let eligible: Vec<&Device> = self
            .devices
            .iter()
            .filter(|d| Some(d.service) != exclude)
            .collect();
        let healthy: Vec<&Device> = eligible
            .iter()
            .copied()
            .filter(|d| !d.resources.is_low("battery") && !self.breaker_open(d.service))
            .collect();
        if let Some(d) = pick(healthy, strategy, client_zone) {
            return Ok(d);
        }
        pick(eligible, strategy, client_zone)
            .ok_or_else(|| ServiceError::ServiceNotFound("no devices".into()))
    }

    /// Serve one request from a client at `client_zone`: pick a device,
    /// pay the zone latency both ways, drain its battery. If the chosen
    /// device fails recoverably (e.g. its breaker trips open mid-call),
    /// the request is retried once on an alternate placement. Returns the
    /// response and the serving device name.
    pub fn request(
        &self,
        client_zone: i64,
        strategy: PlacementStrategy,
        op: &str,
        input: Value,
    ) -> Result<(Value, String)> {
        let device = self.place(client_zone, strategy)?;
        let err = match self.request_on(device, client_zone, op, input.clone()) {
            Ok(out) => return Ok(out),
            Err(e) => e,
        };
        if !err.is_recoverable() {
            return Err(err);
        }
        match self.place_excluding(client_zone, strategy, Some(device.service)) {
            Ok(alternate) => self.request_on(alternate, client_zone, op, input),
            // No alternate (single-device cluster): the original error
            // explains the failure better than "no devices".
            Err(_) => Err(err),
        }
    }

    /// Serve one request on a specific device.
    fn request_on(
        &self,
        device: &Device,
        client_zone: i64,
        op: &str,
        input: Value,
    ) -> Result<(Value, String)> {
        let distance = (device.zone - client_zone).unsigned_abs() as u32;
        precise_delay(ZONE_LATENCY * distance);
        let out = self.bus.invoke(device.service, op, input)?;
        precise_delay(ZONE_LATENCY * distance);
        // Draining may trip the low-battery alert → future placements
        // redirect (paper §4).
        let _ = device.resources.request("battery", self.drain_per_request);
        Ok((out, device.name.clone()))
    }

    /// Pre-load the replicated store.
    pub fn seed(&self, items: &[(&str, &str)]) {
        let mut store = self.store.lock();
        for (k, v) in items {
            store.insert(k.to_string(), v.to_string());
        }
    }
}

/// Count the low-resource events currently queued on an event receiver.
pub fn drain_low_resource_alerts(rx: &crossbeam::channel::Receiver<Event>) -> usize {
    rx.try_iter()
        .filter(|e| matches!(e, Event::LowResource { .. }))
        .count()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_placement_minimises_distance() {
        let cluster = Cluster::new(&[0, 10, 20], 1_000_000, 0, 1).unwrap();
        let d = cluster.place(12, PlacementStrategy::Nearest).unwrap();
        assert_eq!(d.zone, 10);
        let d = cluster.place(-5, PlacementStrategy::Nearest).unwrap();
        assert_eq!(d.zone, 0);
        let d = cluster.place(12, PlacementStrategy::First).unwrap();
        assert_eq!(d.zone, 0, "naive baseline ignores distance");
    }

    #[test]
    fn requests_round_trip_through_replicas() {
        let cluster = Cluster::new(&[0, 5], 1_000_000, 0, 1).unwrap();
        cluster
            .request(
                0,
                PlacementStrategy::Nearest,
                "put",
                Value::map().with("key", "k").with("value", "v"),
            )
            .unwrap();
        let (out, device) = cluster
            .request(5, PlacementStrategy::Nearest, "get", Value::map().with("key", "k"))
            .unwrap();
        assert_eq!(out, Value::Str("v".into()));
        assert_eq!(device, "device-1", "served by the nearer replica");
    }

    #[test]
    fn nearest_is_faster_than_first_for_remote_clients() {
        let cluster = Cluster::new(&[0, 50], 1_000_000, 0, 1).unwrap();
        cluster.seed(&[("k", "v")]);
        let client_zone = 50;
        let time = |strategy| {
            let start = Instant::now();
            for _ in 0..5 {
                cluster
                    .request(client_zone, strategy, "get", Value::map().with("key", "k"))
                    .unwrap();
            }
            start.elapsed()
        };
        let naive = time(PlacementStrategy::First);
        let near = time(PlacementStrategy::Nearest);
        assert!(
            near < naive,
            "proximity composition must win: near={near:?} naive={naive:?}"
        );
    }

    #[test]
    fn low_battery_redirects_workload() {
        // device-0 (zone 0) is nearest but has a tiny battery; after it
        // depletes, requests redirect to device-1 (paper §4).
        let cluster = Cluster::new(&[0, 100], 10, 5, 3).unwrap();
        cluster.seed(&[("k", "v")]);
        let mut serving = Vec::new();
        for _ in 0..4 {
            let (_, device) = cluster
                .request(0, PlacementStrategy::Nearest, "get", Value::map().with("key", "k"))
                .unwrap();
            serving.push(device);
        }
        assert_eq!(serving[0], "device-0");
        assert!(
            serving.iter().any(|d| d == "device-1"),
            "workload must redirect: {serving:?}"
        );
    }

    #[test]
    fn open_breaker_redirects_to_alternate_device() {
        let cluster = Cluster::new(&[0, 100], 1_000_000, 0, 1).unwrap();
        cluster.seed(&[("k", "v")]);
        let dead = cluster.devices()[0].service;
        // Administratively fence device-0's replica: calls to it fail
        // recoverably, so the bus retries until the breaker trips open.
        cluster.bus().disable(dead).unwrap();

        // The request still succeeds — served by device-1 on the second
        // placement, despite device-0 being nearest.
        let (out, device) = cluster
            .request(0, PlacementStrategy::Nearest, "get", Value::map().with("key", "k"))
            .unwrap();
        assert_eq!(out, Value::Str("v".into()));
        assert_eq!(device, "device-1");

        // The failed attempts tripped device-0's breaker, so subsequent
        // placements skip it up front.
        assert_eq!(
            cluster.bus().resilience().breaker_state(dead),
            Some(BreakerState::Open)
        );
        let placed = cluster.place(0, PlacementStrategy::Nearest).unwrap();
        assert_eq!(placed.name, "device-1");
    }

    #[test]
    fn all_devices_low_still_operational() {
        let cluster = Cluster::new(&[0], 10, 100, 1).unwrap();
        cluster.seed(&[("k", "v")]);
        // Alert threshold exceeds capacity: permanently "low", but the
        // system must keep serving (degraded, not dead).
        let (out, _) = cluster
            .request(0, PlacementStrategy::Nearest, "get", Value::map().with("key", "k"))
            .unwrap();
        assert_eq!(out, Value::Str("v".into()));
    }

    #[test]
    fn low_resource_alerts_published() {
        let cluster = Cluster::new(&[0], 10, 8, 5).unwrap();
        let rx = cluster.devices()[0].resources.clone();
        let events_rx = cluster.bus().events().subscribe();
        drop(rx);
        cluster
            .request(0, PlacementStrategy::Nearest, "get", Value::map().with("key", "k"))
            .unwrap();
        assert!(drain_low_resource_alerts(&events_rx) >= 1);
    }
}
