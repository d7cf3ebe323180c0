//! Helpers shared by the root integration tests.

use aqs::node::Program;
use aqs::workloads::MpiBuilder;

/// A random but deadlock-free multi-rank program: a sequence of collective
/// phases `(selector, compute kilo-ops, bytes)`, each preceded by compute
/// spread across the ranks by `imbalance` (what makes quanta above the safe
/// bound straggle).
pub fn random_workload(n: usize, phases: &[(u8, u32, u32)], imbalance: f64) -> Vec<Program> {
    let mut m = MpiBuilder::new(n);
    for &(sel, kops, bytes) in phases {
        m.compute_all_imbalanced(kops as u64 * 1000 + 1, imbalance, sel as u64 + kops as u64);
        let bytes = bytes as u64 + 1;
        match sel % 5 {
            0 => m.barrier(),
            1 => m.allreduce(bytes, 50),
            2 => m.alltoall(bytes),
            3 => m.bcast(sel as usize % n, bytes),
            _ => {
                let dist = 1 + (sel as usize % (n - 1));
                m.neighbor_exchange(&[dist], bytes);
            }
        }
    }
    m.build()
}
