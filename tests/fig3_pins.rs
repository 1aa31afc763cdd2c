//! Bit-level pins of Figure 3.
//!
//! `fig3.json` is regenerated rather than tracked, so these digests are what
//! holds the figure still across refactors of its closed loops: each one
//! folds the bits of every `f64` in every row, in row and field order. A
//! change that moves any number by one ulp changes its digest.

use angstrom_seec::experiments::fig3::QUANTA_PER_RUN;
use angstrom_seec::experiments::Figure3;
use angstrom_seec::xeon_sim::XeonServer;

/// FNV-1a over the little-endian bytes of every row's six `f64` fields.
fn digest(figure: &Figure3) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for row in &figure.rows {
        for value in [
            row.target_heart_rate,
            row.no_adaptation,
            row.uncoordinated,
            row.seec,
            row.static_oracle,
            row.dynamic_oracle,
        ] {
            for byte in value.to_bits().to_le_bytes() {
                hash ^= u64::from(byte);
                hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
    }
    hash
}

/// The historical figure: the linear Dell R410 model, seed 2012.
#[test]
fn the_default_figure_is_pinned_bit_for_bit() {
    let figure = Figure3::compute();
    assert_eq!(figure.rows.len(), 5);
    assert_eq!(
        digest(&figure),
        0xc900_37a7_1b9c_3f82,
        "Figure3::compute() moved; digest {:#018x}",
        digest(&figure)
    );
}

/// The calibrated (convex, goal-respecting) protocol, seed 2012.
#[test]
fn the_calibrated_figure_is_pinned_bit_for_bit() {
    let figure = Figure3::compute_on(&XeonServer::dell_r410_calibrated(), 2012, QUANTA_PER_RUN);
    assert_eq!(figure.rows.len(), 5);
    assert_eq!(
        digest(&figure),
        0x865a_1492_1c1b_ca17,
        "Figure3::compute_on(dell_r410_calibrated) moved; digest {:#018x}",
        digest(&figure)
    );
}
