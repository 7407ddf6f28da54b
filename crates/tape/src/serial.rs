//! Serial tape simulation as the 1-lane instantiation of the wide core.
//!
//! There is no serial interpreter anymore: [`TapeSimulator`] wraps
//! [`WideTapeSimulator`]`<bool>` — the lane-word core evaluated with a
//! one-lane word — so the serial and wide engines cannot drift apart.
//! Per-lane semantics are the wide core's, which the differential suite
//! pins to [`pe_sim::Simulator`] bit for bit; this wrapper only fixes
//! the lane index at 0 and keeps the serial engine's metric names.

use crate::wide::WideTapeSimulator;
use crate::Tape;
use pe_rtl::{ClockId, SignalId};
use pe_util::PortError;

/// Serial interpreter over a compiled [`Tape`] — the drop-in
/// counterpart of [`pe_sim::Simulator`], realized as the single-lane
/// (`bool` lane word) instantiation of the wide interpreter.
#[derive(Debug)]
pub struct TapeSimulator<'t> {
    inner: WideTapeSimulator<'t, bool>,
}

impl<'t> TapeSimulator<'t> {
    /// Builds a simulator with the design at power-on state.
    pub fn new(tape: &'t Tape) -> Self {
        Self {
            inner: WideTapeSimulator::new(tape),
        }
    }

    /// The compiled tape under interpretation.
    pub fn tape(&self) -> &'t Tape {
        self.inner.tape()
    }

    /// Number of clock edges stepped so far.
    pub fn cycle(&self) -> u64 {
        self.inner.cycle()
    }

    /// Number of settle passes performed so far.
    pub fn settle_count(&self) -> u64 {
        self.inner.settle_count()
    }

    /// Observes run counters into `registry` (`sim.cycles`,
    /// `sim.settle_passes` — the serial [`pe_sim::Simulator`]'s
    /// histograms, so dashboards are engine-agnostic).
    pub fn record_metrics(&self, registry: &pe_trace::Registry) {
        registry.histogram("sim.cycles").observe(self.cycle());
        registry
            .histogram("sim.settle_passes")
            .observe(self.settle_count());
    }

    /// Drives a top-level input signal.
    ///
    /// # Panics
    ///
    /// Panics if `signal` is not input-driven or `value` does not fit
    /// its width.
    pub fn set_input(&mut self, signal: SignalId, value: u64) {
        self.inner.set_input_lane(signal, 0, value);
    }

    /// Drives a top-level input by port name.
    ///
    /// # Errors
    ///
    /// [`PortError::NoSuchInput`] if no such input port exists, or
    /// [`PortError::ValueTooWide`] if the value does not fit.
    pub fn try_set_input_by_name(&mut self, name: &str, value: u64) -> Result<(), PortError> {
        use pe_sim::SimControl as _;
        self.inner.lane(0).try_set_input_by_name(name, value)
    }

    /// Drives a top-level input by port name.
    ///
    /// # Panics
    ///
    /// Panics if no such input port exists or the value does not fit.
    pub fn set_input_by_name(&mut self, name: &str, value: u64) {
        self.try_set_input_by_name(name, value)
            .unwrap_or_else(|e| panic!("{e}"));
    }

    /// Current value of a signal (settling first if needed).
    pub fn value(&mut self, signal: SignalId) -> u64 {
        self.inner.value_lane(signal, 0)
    }

    /// Current value of a named output port.
    ///
    /// # Errors
    ///
    /// [`PortError::NoSuchOutput`] if no such output port exists.
    pub fn try_output(&mut self, name: &str) -> Result<u64, PortError> {
        self.inner.try_output_lane(name, 0)
    }

    /// Current value of a named output port.
    ///
    /// # Panics
    ///
    /// Panics if no such output port exists.
    pub fn output(&mut self, name: &str) -> u64 {
        self.try_output(name).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Advances one clock edge on **all** clock domains.
    pub fn step(&mut self) {
        self.inner.step();
    }

    /// Advances one clock edge on the given domain only.
    pub fn step_clock(&mut self, clock: ClockId) {
        self.inner.step_clock(clock);
    }

    /// Runs `n` clock edges on all domains.
    pub fn step_n(&mut self, n: u64) {
        self.inner.step_n(n);
    }

    /// Resets to power-on state: registers to `init`, memories to
    /// initial contents, inputs to zero, cycle counter 0.
    pub fn reset(&mut self) {
        self.inner.reset();
    }
}

impl pe_sim::SimControl for TapeSimulator<'_> {
    fn cycle(&self) -> u64 {
        TapeSimulator::cycle(self)
    }

    fn set_input(&mut self, signal: SignalId, value: u64) {
        TapeSimulator::set_input(self, signal, value);
    }

    fn try_set_input_by_name(&mut self, name: &str, value: u64) -> Result<(), PortError> {
        TapeSimulator::try_set_input_by_name(self, name, value)
    }

    fn try_output(&mut self, name: &str) -> Result<u64, PortError> {
        TapeSimulator::try_output(self, name)
    }

    fn value(&mut self, signal: SignalId) -> u64 {
        TapeSimulator::value(self, signal)
    }
}
