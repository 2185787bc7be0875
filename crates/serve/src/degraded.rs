//! Degraded mode as a value ([`Degraded`]), updated once a step from the
//! policy, the step and the pool's pressure ([`pressure_pct`]).

use crate::config::DegradedConfig;

/// Whether the engine is degraded, the hysteresis behind it, and what it
/// reports.
#[derive(Debug, Default)]
pub(crate) struct Degraded {
    /// Whether the engine is currently in degraded mode.
    pub(crate) on: bool,
    /// Consecutive healthy steps while degraded (the exit hysteresis).
    healthy_streak: u64,
    /// Steps of recent preemptions, pruned to the window by each update.
    recent_preempts: Vec<u64>,
    /// Updates that left the mode on.
    pub(crate) steps: u64,
    /// Entries plus exits.
    pub(crate) transitions: u64,
}

impl Degraded {
    /// Records a preemption at scheduler step `step`.
    pub(crate) fn preempted(&mut self, step: u64) {
        self.recent_preempts.push(step);
    }

    /// Moves the state machine at scheduler step `now`, with the pool at
    /// `pressure_pct`: enter on pressure or on `preempt_threshold`
    /// preemptions inside the window, exit after `cooldown_steps`
    /// consecutive healthy steps. Returns whether the step runs degraded.
    pub(crate) fn update(&mut self, cfg: &DegradedConfig, now: u64, pressure_pct: u32) -> bool {
        self.recent_preempts.retain(|&s| now.saturating_sub(s) <= cfg.preempt_window);
        let preempts = self.recent_preempts.len();
        let next = if self.on {
            let healthy = pressure_pct <= cfg.exit_pressure_pct && preempts == 0;
            self.healthy_streak = if healthy { self.healthy_streak + 1 } else { 0 };
            self.healthy_streak < cfg.cooldown_steps.max(1)
        } else {
            pressure_pct >= cfg.enter_pressure_pct || preempts >= cfg.preempt_threshold.max(1)
        };
        if next != self.on {
            (self.on, self.healthy_streak) = (next, 0);
            self.transitions += 1;
        }
        self.steps += u64::from(self.on);
        self.on
    }
}

/// Pool pressure as a percentage of `capacity`: the `in_use` blocks plus
/// `hidden` ones an injected pressure fault holds back (a simulated
/// shortfall must look like one to the degraded-mode policy too). Zero
/// for an unbounded pool.
pub(crate) fn pressure_pct(in_use: usize, hidden: usize, capacity: usize) -> u32 {
    if capacity == usize::MAX {
        return 0;
    }
    let used = in_use.saturating_add(hidden).min(capacity);
    ((used as u128 * 100) / capacity as u128) as u32
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A policy that enters only at 90 % pressure unless told otherwise.
    fn policy() -> DegradedConfig {
        DegradedConfig {
            enter_pressure_pct: 90,
            exit_pressure_pct: 50,
            preempt_window: 4,
            preempt_threshold: 3,
            cooldown_steps: 3,
            ..DegradedConfig::default()
        }
    }

    #[test]
    fn pressure_counts_hidden_blocks_and_ignores_unbounded_pools() {
        assert_eq!(pressure_pct(50, 10, 100), 60);
        assert_eq!(pressure_pct(95, 10, 100), 100);
        assert_eq!(pressure_pct(7, 3, usize::MAX), 0);
    }

    #[test]
    fn enters_on_pressure() {
        let (cfg, mut d) = (policy(), Degraded::default());
        assert!(!d.update(&cfg, 0, 89));
        assert!(d.update(&cfg, 1, 90));
        assert_eq!((d.steps, d.transitions), (1, 1));
    }

    #[test]
    fn enters_on_preemptions_inside_the_window_only() {
        let cfg = policy();
        // Three preemptions, the oldest five steps back: outside the window.
        let mut d = Degraded::default();
        for step in [0, 2, 3] {
            d.preempted(step);
        }
        assert!(!d.update(&cfg, 5, 0));
        // Two preemptions inside the window are below the threshold...
        let mut d = Degraded::default();
        d.preempted(4);
        d.preempted(5);
        assert!(!d.update(&cfg, 6, 0));
        // ...and a third one inside it trips the mode at zero pressure.
        d.preempted(6);
        assert!(d.update(&cfg, 7, 0));
        assert_eq!(d.transitions, 1);
    }

    #[test]
    fn exits_after_exactly_cooldown_healthy_steps() {
        let (cfg, mut d) = (policy(), Degraded::default());
        assert!(d.update(&cfg, 0, 100));
        assert!(d.update(&cfg, 1, 50));
        assert!(d.update(&cfg, 2, 50));
        assert!(!d.update(&cfg, 3, 50), "the third healthy step ends the mode");
        assert!(!d.update(&cfg, 4, 89), "below the entry threshold it stays off");
        assert_eq!((d.steps, d.transitions), (3, 2));
    }

    #[test]
    fn a_relapse_resets_the_streak() {
        let (cfg, mut d) = (policy(), Degraded::default());
        assert!(d.update(&cfg, 0, 100));
        assert!(d.update(&cfg, 1, 50));
        assert!(d.update(&cfg, 2, 50));
        // Above the exit threshold: not healthy, the streak starts over.
        assert!(d.update(&cfg, 3, 51));
        assert!(d.update(&cfg, 4, 50));
        assert!(d.update(&cfg, 5, 50));
        // A preemption inside the window is a relapse too.
        d.preempted(5);
        assert!(d.update(&cfg, 6, 0));
        for step in 7..=9 {
            assert!(d.update(&cfg, step, 0), "step {step}: the preemption is still in the window");
        }
        // It leaves the window at step 10: three healthy steps from there.
        assert!(d.update(&cfg, 10, 0));
        assert!(d.update(&cfg, 11, 0));
        assert!(!d.update(&cfg, 12, 0));
        assert_eq!(d.transitions, 2);
    }
}
