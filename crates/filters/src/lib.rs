//! Event-domain noise filters.
//!
//! NVS pixels produce spurious background-activity events even in a static
//! scene (§II-A: "noise prevalent in such sensors invariably lead to
//! spurious spikes even in the absence of any objects"). A *fully*
//! event-based pipeline must therefore denoise the stream before tracking;
//! the EBBIOT paper's EBMS baseline runs behind the nearest-neighbour
//! filter of Padala et al., whose cost model is Eq. 2:
//!
//! ```text
//! C_NN-filt = (2 (p^2 - 1) + Bt) * n        [ops per frame]
//! M_NN-filt = Bt * A * B                    [bits]
//! ```
//!
//! This crate implements:
//!
//! * [`NnFilter`] — the nearest-neighbour filter: an event is signal when
//!   some pixel in its `p x p` neighbourhood fired within the support
//!   window (the EBMS baseline's denoiser),
//! * [`EventFilter`] — the streaming-filter trait, plus [`filter_stream`]
//!   for batch use.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod nn_filter;

pub use nn_filter::NnFilter;

use ebbiot_events::{Event, OpsCounter};

/// A streaming event filter: sees each event once, in time order, and
/// decides whether it is signal (`true`) or noise (`false`).
///
/// Filters are stateful (timestamp maps etc.); [`EventFilter::reset`]
/// clears that state for reuse across recordings.
pub trait EventFilter {
    /// Processes one event, returning `true` to keep it.
    fn keep(&mut self, event: &Event) -> bool;

    /// Clears internal state.
    fn reset(&mut self);

    /// Runtime op counter for this filter.
    fn ops(&self) -> &OpsCounter;

    /// Resets the op counter.
    fn reset_ops(&mut self);
}

/// Runs a filter over a whole stream, returning the kept events.
pub fn filter_stream(filter: &mut impl EventFilter, events: &[Event]) -> Vec<Event> {
    events.iter().filter(|e| filter.keep(e)).copied().collect()
}
