//! A disabled handle never reaches the recorder.
//!
//! The check compares the process-wide [`events_recorded_total`] before
//! and after, so it lives in a test binary of its own: no sibling test
//! records events on another thread while it runs.

use genfv_obs::{events_recorded_total, Obs, QueryKind};

#[test]
fn off_handle_records_nothing() {
    let before = events_recorded_total();
    let obs = Obs::off();
    {
        let _outer = obs.span("outer");
        let _inner = obs.span_with("inner", || unreachable!("detail must stay lazy"));
        obs.instant("tick");
        obs.record_solve(QueryKind::Base, 1, 2, 3, 4, 5);
    }
    assert!(!obs.is_enabled());
    assert_eq!(obs.snapshot_events(), Vec::new());
    assert_eq!(obs.metrics(), None);
    assert_eq!(events_recorded_total(), before, "Off must not reach the recorder");
}
