//! Container lifecycle: the state machine underneath a keep-alive decision.

use pulse_models::VariantId;

/// Lifecycle states of a function container.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ContainerState {
    /// Being created and loading its model; not yet able to serve.
    Provisioning,
    /// Warm and idle: able to serve instantly; billed as keep-alive.
    Warm,
    /// Executing one or more requests (still warm for new arrivals).
    Executing,
    /// Dead: provisioning exhausted the family's whole quality ladder, or
    /// the container crashed. A reaped container never serves again; the
    /// runtime drops it from the function slot once recorded.
    Reaped,
}

/// A live (or in-flight) container of one function.
#[derive(Debug, Clone, PartialEq)]
pub struct LiveContainer {
    /// Which quality variant it hosts.
    pub variant: VariantId,
    /// Lifecycle state.
    pub state: ContainerState,
    /// In-flight request count.
    pub busy: u32,
    /// Time (ms) at which the container became warm (finishes provisioning);
    /// used for billing from warm-time onward.
    pub warm_since_ms: u64,
    /// Provisioning epoch, to cancel stale `ProvisionDone` events.
    pub epoch: u64,
}

impl LiveContainer {
    /// A container that starts provisioning now and becomes warm at
    /// `ready_ms`.
    pub fn provisioning(variant: VariantId, ready_ms: u64, epoch: u64) -> Self {
        Self {
            variant,
            state: ContainerState::Provisioning,
            busy: 0,
            warm_since_ms: ready_ms,
            epoch,
        }
    }

    /// A container that is warm immediately (proactive pre-warm / variant
    /// swap planned a minute ahead).
    pub fn warm(variant: VariantId, now_ms: u64, epoch: u64) -> Self {
        Self {
            variant,
            state: ContainerState::Warm,
            busy: 0,
            warm_since_ms: now_ms,
            epoch,
        }
    }

    /// Whether the container can serve a request right now.
    pub fn is_warm(&self) -> bool {
        matches!(self.state, ContainerState::Warm | ContainerState::Executing)
    }

    /// Begin executing one request.
    pub fn begin_exec(&mut self) {
        debug_assert!(self.is_warm(), "cannot execute on a cold container");
        self.busy += 1;
        self.state = ContainerState::Executing;
    }

    /// Finish executing one request.
    pub fn end_exec(&mut self) {
        debug_assert!(self.busy > 0, "end_exec without begin_exec");
        self.busy -= 1;
        if self.busy == 0 {
            self.state = ContainerState::Warm;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn provisioning_is_not_warm() {
        let c = LiveContainer::provisioning(2, 5000, 1);
        assert!(!c.is_warm());
        assert_eq!(c.state, ContainerState::Provisioning);
        assert_eq!(c.warm_since_ms, 5000);
    }

    #[test]
    fn exec_transitions() {
        let mut c = LiveContainer::warm(1, 0, 1);
        assert!(c.is_warm());
        c.begin_exec();
        assert_eq!(c.state, ContainerState::Executing);
        assert!(c.is_warm(), "executing containers still serve new arrivals");
        c.begin_exec();
        assert_eq!(c.busy, 2);
        c.end_exec();
        assert_eq!(c.state, ContainerState::Executing);
        c.end_exec();
        assert_eq!(c.state, ContainerState::Warm);
        assert_eq!(c.busy, 0);
    }

    #[test]
    fn reaped_cannot_serve() {
        let mut c = LiveContainer::warm(1, 0, 1);
        c.state = ContainerState::Reaped;
        assert!(!c.is_warm());
    }

    #[test]
    #[should_panic(expected = "end_exec without begin_exec")]
    #[cfg(debug_assertions)]
    fn unbalanced_end_exec_panics_in_debug() {
        let mut c = LiveContainer::warm(0, 0, 1);
        c.end_exec();
    }
}
