//! Energy integration: per-host draw, clock advancement, transition
//! charges.
//!
//! Per-host draw routes through the [`zombieland_energy::PowerModel`]
//! carried by [`crate::SimConfig::power`] (the Table-3-calibrated
//! [`zombieland_energy::Table3Power`] by default), translating the
//! simulator's host state into the model's [`HostDraw`] vocabulary.

use zombieland_cloud::oasis::memory_server_power;
use zombieland_energy::{HostDraw, MachineProfile};
use zombieland_simcore::{SimDuration, SimTime, Watts};

use crate::dc::{Dc, HState};

impl Dc {
    pub(crate) fn profile(&self) -> &MachineProfile {
        &self.cfg.profile
    }

    /// Current power of one host given its state/utilization.
    ///
    /// `host` must index an existing host; the all-idle initial state
    /// samples host 0 (guarded by the fleet-size check in
    /// [`Dc::new`](crate::dc::Dc::new)). An out-of-range index is a
    /// simulator bug — it trips the `debug_assert!` in debug builds and
    /// draws zero watts in release rather than silently pricing a
    /// phantom "active" host, as the old `unwrap_or(HState::Active)`
    /// fallback did.
    pub(crate) fn host_power(&self, host: usize) -> Watts {
        debug_assert!(
            host < self.hosts.len(),
            "host_power({host}) out of range ({} hosts)",
            self.hosts.len()
        );
        let Some(&state) = self.hosts.state.get(host) else {
            return Watts::ZERO;
        };
        let draw = match state {
            HState::Active => HostDraw::Active {
                utilization: self.hosts.cpu_used[host],
            },
            HState::Zombie => HostDraw::Zombie,
            HState::Sleeping => HostDraw::Suspended,
        };
        // Per-host model: the per-generation scaling in heterogeneous
        // fleets; in uniform fleets every entry is the config model, so
        // this is the same call the global-model code made.
        self.hosts.power[host].host_power(self.profile(), draw)
    }

    /// Integrates energy up to `now` and advances the clock.
    pub(crate) fn advance(&mut self, now: SimTime) {
        let dt = now.saturating_since(self.last);
        if dt > SimDuration::ZERO {
            let parked_power = self.profile().max_power() * memory_server_power(self.parked_mem);
            // The zombie backend's pool is host memory, already priced in
            // `total_power`; a shared tier adds its own per-rack draw. The
            // first branch must stay the exact historical expression — it
            // is what keeps pre-backend golden reports byte-identical.
            let backend = self.cfg.backend.backend;
            let fleet = if backend.pools_host_memory() {
                self.total_power + parked_power
            } else {
                let mut frac = 0.0;
                for &alloc in &self.cxl_allocated {
                    frac += backend
                        .pool_power_fraction(self.cfg.cxl_capacity, alloc)
                        .unwrap_or(0.0);
                }
                self.total_power + parked_power + self.profile().max_power() * frac
            };
            self.energy += fleet.over(dt);
            let secs = dt.as_secs_f64();
            for (i, &count) in self.state_counts.iter().enumerate() {
                self.report.state_seconds[i] += count as f64 * secs;
            }
            self.last = now;
        } else if now > self.last {
            self.last = now;
        }
    }

    /// Charges the energy of one power-state transition of `host`: the
    /// platform runs its enter/exit sequence at near-full draw for the
    /// latency the firmware model reports, priced by the host's own
    /// power model (per-generation in heterogeneous fleets).
    pub(crate) fn charge_transition(&mut self, host: usize, from: HState, to: HState) {
        if !self.cfg.transition_costs {
            return;
        }
        // Latencies from the firmware model: S3/Sz enter ~3 s, exit ~4 s.
        let latency = match (from, to) {
            (HState::Active, _) => SimDuration::from_millis(2_950),
            (_, HState::Active) => SimDuration::from_millis(3_800),
            _ => SimDuration::ZERO,
        };
        if latency > SimDuration::ZERO {
            zombieland_obs::sink::counter_add("sim.transitions", 1);
            zombieland_obs::sink::hist_record("sim.transition_ns", latency.as_nanos());
        }
        self.energy += self.hosts.power[host]
            .transition_power(self.profile())
            .over(latency);
    }
}
