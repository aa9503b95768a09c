//! Daemon-wide observability counters.
//!
//! Everything `/metrics` reports lives here: the fleet task counters
//! (executed, answered from the store) and a fixed-bucket latency
//! histogram per endpoint. All counters are relaxed atomics —
//! recording a sample never contends with request handling. The
//! evaluation-cache and store figures live elsewhere and are sampled
//! by the caller at render time.

use serde::Value;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;
use xps_core::explore::CacheCounters;

/// Histogram bucket upper bounds, microseconds (the last bucket is
/// unbounded).
pub const LATENCY_BUCKETS_US: [u64; 4] = [1_000, 10_000, 100_000, 1_000_000];

/// The endpoints measured separately.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Endpoint {
    /// `GET /metrics`
    Metrics,
    /// `POST /tasks` and `GET /tasks/<id>` (fleet worker execution).
    Task,
    /// Everything else (including errors).
    Other,
}

impl Endpoint {
    const ALL: [Endpoint; 3] = [Endpoint::Metrics, Endpoint::Task, Endpoint::Other];

    fn label(&self) -> &'static str {
        match self {
            Endpoint::Metrics => "metrics",
            Endpoint::Task => "task",
            Endpoint::Other => "other",
        }
    }

    fn index(&self) -> usize {
        #[expect(
            clippy::expect_used,
            reason = "Endpoint::ALL enumerates every variant; position always finds self"
        )]
        Endpoint::ALL
            .iter()
            .position(|e| e == self)
            .expect("listed")
    }
}

#[derive(Debug, Default)]
struct Histogram {
    buckets: [AtomicU64; 5],
    count: AtomicU64,
    total_us: AtomicU64,
}

impl Histogram {
    fn record(&self, elapsed: Duration) {
        let us = u64::try_from(elapsed.as_micros()).unwrap_or(u64::MAX);
        let bucket = LATENCY_BUCKETS_US
            .iter()
            .position(|&b| us < b)
            .unwrap_or(LATENCY_BUCKETS_US.len());
        self.buckets[bucket].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.total_us.fetch_add(us, Ordering::Relaxed);
    }

    fn to_value(&self) -> Value {
        let mut fields = vec![
            (
                "count".to_string(),
                Value::U64(self.count.load(Ordering::Relaxed)),
            ),
            (
                "total_us".to_string(),
                Value::U64(self.total_us.load(Ordering::Relaxed)),
            ),
        ];
        let labels = ["lt_1ms", "lt_10ms", "lt_100ms", "lt_1s", "ge_1s"];
        for (label, bucket) in labels.iter().zip(&self.buckets) {
            fields.push((
                (*label).to_string(),
                Value::U64(bucket.load(Ordering::Relaxed)),
            ));
        }
        Value::Obj(fields)
    }
}

/// All counters the daemon exposes.
#[derive(Debug, Default)]
pub struct Metrics {
    fleet_tasks_executed: AtomicU64,
    fleet_task_store_hits: AtomicU64,
    latency: [Histogram; 3],
}

impl Metrics {
    /// Fresh, all-zero counters.
    pub fn new() -> Metrics {
        Metrics::default()
    }

    /// Record one fleet task executed by this worker (`POST /tasks`).
    pub fn fleet_task_executed(&self) {
        self.fleet_tasks_executed.fetch_add(1, Ordering::Relaxed);
    }

    /// Record one fleet task answered from the result store without
    /// re-executing (duplicate or retried dispatch).
    pub fn fleet_task_store_hit(&self) {
        self.fleet_task_store_hits.fetch_add(1, Ordering::Relaxed);
    }

    /// Record one request's latency under its endpoint.
    pub fn record_latency(&self, endpoint: Endpoint, elapsed: Duration) {
        self.latency[endpoint.index()].record(elapsed);
    }

    /// Render the `/metrics` document. `cache` (the shared
    /// evaluation cache's lifetime counters) and `store_records` are
    /// sampled by the caller: they live elsewhere.
    pub fn render(&self, cache: CacheCounters, store_records: usize) -> String {
        let load = |a: &AtomicU64| Value::U64(a.load(Ordering::Relaxed));
        let cache = Value::Obj(vec![
            ("hits".to_string(), Value::U64(cache.hits)),
            ("misses".to_string(), Value::U64(cache.misses)),
            ("hit_rate".to_string(), Value::F64(cache.hit_rate())),
        ]);
        let store = Value::Obj(vec![(
            "records".to_string(),
            Value::U64(store_records as u64),
        )]);
        let fleet = Value::Obj(vec![
            (
                "tasks_executed".to_string(),
                load(&self.fleet_tasks_executed),
            ),
            (
                "task_store_hits".to_string(),
                load(&self.fleet_task_store_hits),
            ),
        ]);
        let latency = Value::Obj(
            Endpoint::ALL
                .iter()
                .map(|e| (e.label().to_string(), self.latency[e.index()].to_value()))
                .collect(),
        );
        crate::json(&Value::Obj(vec![
            ("cache".to_string(), cache),
            ("store".to_string(), store),
            ("fleet".to_string(), fleet),
            ("latency_us".to_string(), latency),
        ]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_land_in_the_rendered_document() {
        let m = Metrics::new();
        m.fleet_task_executed();
        m.fleet_task_executed();
        m.fleet_task_store_hit();
        m.record_latency(Endpoint::Task, Duration::from_micros(500));
        m.record_latency(Endpoint::Task, Duration::from_millis(50));
        m.record_latency(Endpoint::Metrics, Duration::from_secs(2));
        let cache = CacheCounters { hits: 3, misses: 1 };
        let doc = serde_json::from_str::<Value>(&m.render(cache, 7)).expect("valid JSON");
        let fleet = doc.member("fleet").expect("fleet");
        assert_eq!(fleet.member("tasks_executed").unwrap(), &Value::U64(2));
        assert_eq!(fleet.member("task_store_hits").unwrap(), &Value::U64(1));
        let cache = doc.member("cache").expect("cache");
        assert_eq!(cache.member("misses").unwrap(), &Value::U64(1));
        assert_eq!(cache.member("hit_rate").unwrap(), &Value::F64(0.75));
        assert_eq!(
            doc.member("store").unwrap().member("records").unwrap(),
            &Value::U64(7)
        );
        let task = doc.member("latency_us").unwrap().member("task").unwrap();
        assert_eq!(task.member("count").unwrap(), &Value::U64(2));
        assert_eq!(task.member("lt_1ms").unwrap(), &Value::U64(1));
        assert_eq!(task.member("lt_100ms").unwrap(), &Value::U64(1));
        let metrics = doc.member("latency_us").unwrap().member("metrics").unwrap();
        assert_eq!(metrics.member("ge_1s").unwrap(), &Value::U64(1));
    }
}
