//! Simulation statistics — everything Tables 3 and 4 report.

use crate::config::{class_idx, QueueKind};
use guardspec_ir::FuClass;

/// Counters accumulated over one simulation.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SimStats {
    /// Total cycles to drain the trace ("the final commit cycle").
    pub cycles: u64,
    /// Committed instructions excluding annulled guarded ones (IPC basis).
    pub committed: u64,
    /// Committed instructions including annulled.
    pub committed_total: u64,
    /// Annulled guarded instructions.
    pub annulled: u64,

    /// Cycles each reservation station was at capacity, by `QueueKind::index`.
    pub queue_full_cycles: [u64; 4],
    /// Sum of per-cycle queue occupancy (for average occupancy).
    pub queue_occupancy_sum: [u64; 4],
    /// Cycles every functional unit of a class was issued/busy at once,
    /// by `FuClass` dense index ("% times `<unit>` is full").
    pub fu_full_cycles: [u64; 8],
    /// Total issues per class.
    pub fu_issues: [u64; 8],

    /// Conditional branches seen at fetch.
    pub cond_branches: u64,
    /// Conditional branches whose direction was mispredicted.
    pub mispredicts: u64,
    /// Branch-likely instructions fetched.
    pub likely_branches: u64,
    /// Branch-likely instructions that were (incorrectly) not taken.
    pub likely_mispredicts: u64,
    /// Indirect transfers (returns, register-relative jumps) that stalled
    /// fetch until resolution.
    pub indirect_stalls: u64,
    /// BTB statistics.
    pub btb_hits: u64,
    pub btb_misses: u64,

    /// Cache statistics.
    pub icache_hits: u64,
    pub icache_misses: u64,
    pub dcache_hits: u64,
    pub dcache_misses: u64,

    /// Cycles fetch was stalled waiting on an unresolved branch.
    pub fetch_stall_cycles: u64,
}

impl SimStats {
    /// Instructions per cycle, excluding annulled (Table 4 footnote 7).
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.committed as f64 / self.cycles as f64
        }
    }

    /// "% times `<queue>` reservation unit is full (ratio to the final commit
    /// cycle)" — Table 3.
    pub fn rs_full_pct(&self, q: QueueKind) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            100.0 * self.queue_full_cycles[q.index()] as f64 / self.cycles as f64
        }
    }

    /// Average occupancy of a reservation station.
    pub fn rs_avg_occupancy(&self, q: QueueKind) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.queue_occupancy_sum[q.index()] as f64 / self.cycles as f64
        }
    }

    /// "% times `<unit>` is full (ratio to the final commit cycle)" — Table 4.
    pub fn fu_full_pct(&self, c: FuClass) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            100.0 * self.fu_full_cycles[class_idx(c)] as f64 / self.cycles as f64
        }
    }

    /// Fraction of conditional branches predicted correctly.
    pub fn branch_accuracy(&self) -> f64 {
        if self.cond_branches == 0 {
            1.0
        } else {
            1.0 - self.mispredicts as f64 / self.cond_branches as f64
        }
    }

    pub fn icache_hit_rate(&self) -> f64 {
        ratio(self.icache_hits, self.icache_misses)
    }

    pub fn dcache_hit_rate(&self) -> f64 {
        ratio(self.dcache_hits, self.dcache_misses)
    }

    pub fn btb_hit_rate(&self) -> f64 {
        ratio(self.btb_hits, self.btb_misses)
    }

    /// Every counter as a stable `(name, value)` list — the serialization
    /// hook used by `guardspec-harness` to persist stats in its
    /// content-addressed cache.  Indexed fields use `name[i]` names.
    pub fn field_list(&self) -> Vec<(String, u64)> {
        let mut out = vec![
            ("cycles".to_string(), self.cycles),
            ("committed".to_string(), self.committed),
            ("committed_total".to_string(), self.committed_total),
            ("annulled".to_string(), self.annulled),
        ];
        for (i, v) in self.queue_full_cycles.iter().enumerate() {
            out.push((format!("queue_full_cycles[{i}]"), *v));
        }
        for (i, v) in self.queue_occupancy_sum.iter().enumerate() {
            out.push((format!("queue_occupancy_sum[{i}]"), *v));
        }
        for (i, v) in self.fu_full_cycles.iter().enumerate() {
            out.push((format!("fu_full_cycles[{i}]"), *v));
        }
        for (i, v) in self.fu_issues.iter().enumerate() {
            out.push((format!("fu_issues[{i}]"), *v));
        }
        out.extend([
            ("cond_branches".to_string(), self.cond_branches),
            ("mispredicts".to_string(), self.mispredicts),
            ("likely_branches".to_string(), self.likely_branches),
            ("likely_mispredicts".to_string(), self.likely_mispredicts),
            ("indirect_stalls".to_string(), self.indirect_stalls),
            ("btb_hits".to_string(), self.btb_hits),
            ("btb_misses".to_string(), self.btb_misses),
            ("icache_hits".to_string(), self.icache_hits),
            ("icache_misses".to_string(), self.icache_misses),
            ("dcache_hits".to_string(), self.dcache_hits),
            ("dcache_misses".to_string(), self.dcache_misses),
            ("fetch_stall_cycles".to_string(), self.fetch_stall_cycles),
        ]);
        out
    }

    /// Inverse of [`SimStats::field_list`]; returns `false` for an unknown
    /// field name (so deserializers can reject stale cache entries).
    pub fn set_field(&mut self, name: &str, value: u64) -> bool {
        if let Some((base, rest)) = name.split_once('[') {
            let Some(i) = rest.strip_suffix(']').and_then(|s| s.parse::<usize>().ok()) else {
                return false;
            };
            let slot = match base {
                "queue_full_cycles" => self.queue_full_cycles.get_mut(i),
                "queue_occupancy_sum" => self.queue_occupancy_sum.get_mut(i),
                "fu_full_cycles" => self.fu_full_cycles.get_mut(i),
                "fu_issues" => self.fu_issues.get_mut(i),
                _ => None,
            };
            return match slot {
                Some(s) => {
                    *s = value;
                    true
                }
                None => false,
            };
        }
        let slot = match name {
            "cycles" => &mut self.cycles,
            "committed" => &mut self.committed,
            "committed_total" => &mut self.committed_total,
            "annulled" => &mut self.annulled,
            "cond_branches" => &mut self.cond_branches,
            "mispredicts" => &mut self.mispredicts,
            "likely_branches" => &mut self.likely_branches,
            "likely_mispredicts" => &mut self.likely_mispredicts,
            "indirect_stalls" => &mut self.indirect_stalls,
            "btb_hits" => &mut self.btb_hits,
            "btb_misses" => &mut self.btb_misses,
            "icache_hits" => &mut self.icache_hits,
            "icache_misses" => &mut self.icache_misses,
            "dcache_hits" => &mut self.dcache_hits,
            "dcache_misses" => &mut self.dcache_misses,
            "fetch_stall_cycles" => &mut self.fetch_stall_cycles,
            _ => return false,
        };
        *slot = value;
        true
    }
}

fn ratio(hits: u64, misses: u64) -> f64 {
    let t = hits + misses;
    if t == 0 {
        0.0
    } else {
        hits as f64 / t as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derived_metrics() {
        let mut s = SimStats {
            cycles: 1000,
            committed: 640,
            cond_branches: 200,
            mispredicts: 16,
            ..SimStats::default()
        };
        s.queue_full_cycles[QueueKind::Branch.index()] = 139;
        s.fu_full_cycles[class_idx(FuClass::Alu)] = 7;
        assert!((s.ipc() - 0.64).abs() < 1e-12);
        assert!((s.rs_full_pct(QueueKind::Branch) - 13.9).abs() < 1e-9);
        assert!((s.fu_full_pct(FuClass::Alu) - 0.7).abs() < 1e-9);
        assert!((s.branch_accuracy() - 0.92).abs() < 1e-12);
    }

    #[test]
    fn field_list_roundtrips() {
        let mut s = SimStats {
            cycles: 9,
            dcache_misses: 3,
            ..SimStats::default()
        };
        s.queue_full_cycles[2] = 4;
        s.fu_issues[7] = 11;
        let mut back = SimStats::default();
        for (name, v) in s.field_list() {
            assert!(back.set_field(&name, v), "unknown field {name}");
        }
        assert_eq!(back, s);
        assert!(!back.set_field("no_such_field", 1));
        assert!(!back.set_field("fu_issues[99]", 1));
    }

    #[test]
    fn zero_cycles_safe() {
        let s = SimStats::default();
        assert_eq!(s.ipc(), 0.0);
        assert_eq!(s.rs_full_pct(QueueKind::Integer), 0.0);
        assert_eq!(s.fu_full_pct(FuClass::Shift), 0.0);
        assert_eq!(s.branch_accuracy(), 1.0);
        assert_eq!(s.icache_hit_rate(), 0.0);
    }
}
