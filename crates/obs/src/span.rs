//! RAII timing spans: measure a scope, record the elapsed nanoseconds into
//! a registered histogram when the guard drops.
//!
//! ```
//! {
//!     let _s = o4a_obs::span!("doc_example");
//!     // ... work ...
//! } // records elapsed ns into o4a_doc_example_ns on drop
//! ```
//!
//! Spans are *not* gated on the log level: the metrics registry must stay
//! populated even under `O4A_LOG=error`, otherwise a `METRICS` scrape of a
//! quiet server would be empty.

use std::time::Instant;

use crate::metrics::Histogram;

/// A guard that records elapsed nanoseconds into a [`Histogram`] on drop.
///
/// Construct through the [`crate::span!`] macro (which names and registers
/// the histogram) or [`Span::enter`] with an explicit histogram.
#[must_use = "a span records on drop; binding it to _ discards it immediately"]
#[derive(Debug)]
pub struct Span<'a> {
    hist: &'a Histogram,
    t0: Instant,
}

impl<'a> Span<'a> {
    /// Starts a span recording into `hist` when dropped.
    #[inline]
    pub fn enter(hist: &'a Histogram) -> Span<'a> {
        Span {
            hist,
            t0: Instant::now(),
        }
    }
}

impl Drop for Span<'_> {
    #[inline]
    fn drop(&mut self) {
        self.hist.record(self.t0.elapsed().as_nanos() as u64);
    }
}

/// Opens a timing [`Span`] over the enclosing scope.
///
/// `span!("name")` registers (once) and records into the global histogram
/// `o4a_<name>_ns`.
#[macro_export]
macro_rules! span {
    ($name:literal) => {
        $crate::span::Span::enter($crate::histogram!(
            ::std::concat!("o4a_", $name, "_ns"),
            ::std::concat!("latency of the `", $name, "` span in nanoseconds"),
        ))
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn span_records_on_drop() {
        let h = Histogram::new();
        {
            let _s = Span::enter(&h);
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        assert_eq!(h.count(), 1);
        assert!(h.sum() >= 1_000_000, "recorded {} ns", h.sum());
    }

    #[test]
    fn span_macro_registers_global_histogram() {
        {
            let _s = crate::span!("span_macro_test");
        }
        let h = crate::metrics::global().histogram(
            "o4a_span_macro_test_ns",
            "latency of the `span_macro_test` span in nanoseconds",
        );
        assert!(h.count() >= 1);
    }
}
