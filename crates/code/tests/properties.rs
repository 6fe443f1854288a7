//! Property-based tests of layouts and deformation: every instruction
//! sequence that applies must leave a valid layout, reintegration restores
//! the pristine patch, distances behave monotonically, and a patch's kept
//! layout always equals a replay of its journal.

use caliqec_code::{
    apply_interior, check_gauge_commutation, code_distance, data_coord, face_ancilla,
    heavy_hex_patch, rotated_patch, DeformError, DeformInstruction, DeformedPatch, Lattice,
    PatchLayout, Side,
};
use proptest::prelude::*;

/// Replays a patch's journal onto its pristine base through the public
/// per-instruction API: what [`DeformedPatch::layout`] must return.
fn replay(patch: &DeformedPatch) -> Result<PatchLayout, DeformError> {
    let mut layout = patch.pristine();
    for &instr in patch.journal() {
        apply_interior(&mut layout, patch.lattice(), instr)?;
    }
    layout.validate()?;
    check_gauge_commutation(&layout)?;
    Ok(layout)
}

fn side_of(v: usize) -> Side {
    match v % 4 {
        0 => Side::Top,
        1 => Side::Bottom,
        2 => Side::Left,
        _ => Side::Right,
    }
}

/// One step of a random deformation sequence, decoded from `(kind, a, b)`
/// against the patch's current shape: `None` means `reintegrate_last`.
///
/// Data and square-lattice syndrome coordinates range one past the patch on
/// each axis, so boundary qubits are hit and missing ones fail. Heavy-hex
/// ancilla instructions pick any current ancilla with any bridge role, so
/// many of them fail on a wrong role or a merged readout.
fn step(patch: &DeformedPatch, (kind, a, b): (u8, usize, usize)) -> Option<DeformInstruction> {
    let (rows, cols) = (patch.rows(), patch.cols());
    Some(match kind {
        0..=2 => DeformInstruction::DataQRm {
            qubit: data_coord(a % (rows + 1), b % (cols + 1)),
        },
        3 | 4 => match patch.lattice() {
            Lattice::Square => DeformInstruction::SyndromeQRm {
                ancilla: face_ancilla((a % (rows + 1)) as i32 - 1, (b % (cols + 1)) as i32 - 1),
            },
            Lattice::HeavyHex => {
                let ancillas: Vec<_> = patch
                    .layout()
                    .unwrap_or_else(|_| patch.pristine())
                    .ancillas()
                    .into_iter()
                    .collect();
                let ancilla = ancillas[a % ancillas.len()];
                match b % 3 {
                    0 => DeformInstruction::AncQRmHorDeg2 { ancilla },
                    1 => DeformInstruction::AncQRmVerDeg2 { ancilla },
                    _ => DeformInstruction::AncQRmDeg3 { ancilla },
                }
            }
        },
        5 => DeformInstruction::PatchQAd { side: side_of(b) },
        6 => DeformInstruction::PatchQRm { side: side_of(b) },
        _ => return None,
    })
}

/// Drives one patch through `ops`. After every step its kept layout must
/// equal a replay of its journal, and a failed `apply` must leave layout,
/// journal and shape unchanged. A second patch takes the same steps without
/// ever being asked for its layout, so its applies start from an unrealized
/// layout after every reintegration; they must return what the first
/// patch's do. Returns `(applied, failed)` counts.
fn check_incremental(
    lattice: Lattice,
    rows: usize,
    cols: usize,
    ops: &[(u8, usize, usize)],
) -> (usize, usize) {
    let mut patch = DeformedPatch::new(lattice, rows, cols);
    let mut unobserved = patch.clone();
    let (mut applied, mut failed) = (0, 0);
    for &op in ops {
        match step(&patch, op) {
            Some(instr) => {
                let before = (patch.layout(), patch.journal().to_vec());
                let shape = (patch.rows(), patch.cols());
                let result = patch.apply(instr);
                prop_assert_eq!(&result, &unobserved.apply(instr), "{:?}", instr);
                match result {
                    Ok(layout) => {
                        applied += 1;
                        prop_assert_eq!(Ok(layout), patch.layout(), "{:?}", instr);
                    }
                    Err(_) => {
                        failed += 1;
                        prop_assert_eq!(&before.0, &patch.layout(), "{:?}", instr);
                        prop_assert_eq!(&before.1[..], patch.journal(), "{:?}", instr);
                        prop_assert_eq!(shape, (patch.rows(), patch.cols()));
                    }
                }
            }
            None => {
                prop_assert_eq!(patch.reintegrate_last(), unobserved.reintegrate_last());
            }
        }
        prop_assert_eq!(patch.layout(), replay(&patch), "after {:?}", op);
        prop_assert_eq!(patch.journal(), unobserved.journal());
    }
    (applied, failed)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Pristine rotated patches of any dimensions validate and have
    /// distance min(rows, cols).
    #[test]
    fn pristine_square_patches_valid(rows in 2usize..9, cols in 2usize..9) {
        let layout = rotated_patch(rows, cols);
        prop_assert!(layout.validate().is_ok());
        prop_assert_eq!(layout.stabilizers.len(), rows * cols - 1);
        let d = code_distance(&layout);
        prop_assert_eq!(d.z, cols);
        prop_assert_eq!(d.x, rows);
    }

    /// Pristine heavy-hex patches validate with the same structure.
    #[test]
    fn pristine_heavy_hex_patches_valid(rows in 2usize..6, cols in 2usize..6) {
        let layout = heavy_hex_patch(rows, cols);
        prop_assert!(layout.validate().is_ok());
        prop_assert_eq!(layout.stabilizers.len(), rows * cols - 1);
        prop_assert_eq!(code_distance(&layout).min(), rows.min(cols));
    }

    /// Any sequence of interior DataQ_RM instructions that applies leaves a
    /// valid layout with positive distance, and full reintegration restores
    /// the pristine patch exactly.
    #[test]
    fn data_q_rm_sequences_preserve_validity(
        holes in prop::collection::vec((1usize..6, 1usize..6), 1..5)
    ) {
        let d = 7;
        let mut patch = DeformedPatch::new(Lattice::Square, d, d);
        let mut applied = 0;
        for (r, c) in holes {
            if patch.apply(DeformInstruction::DataQRm { qubit: data_coord(r, c) }).is_ok() {
                applied += 1;
            }
        }
        let layout = patch.layout().expect("journal stays valid");
        prop_assert!(layout.validate().is_ok());
        prop_assert_eq!(layout.data.len(), d * d - applied);
        prop_assert!(code_distance(&layout).min() >= 1);
        patch.reintegrate_all();
        prop_assert_eq!(patch.layout().unwrap(), rotated_patch(d, d));
    }

    /// Enlargement never decreases the distance; shrinking never increases
    /// it.
    #[test]
    fn patch_resizing_is_monotone(
        grows in prop::collection::vec(0u8..4, 0..4),
        shrinks in prop::collection::vec(0u8..4, 0..2),
    ) {
        let mut patch = DeformedPatch::new(Lattice::Square, 5, 5);
        let mut last = code_distance(&patch.layout().unwrap()).min();
        for g in grows {
            patch.apply(DeformInstruction::PatchQAd { side: side_of(g.into()) }).unwrap();
            let now = code_distance(&patch.layout().unwrap()).min();
            prop_assert!(now >= last, "growth shrank distance {last} -> {now}");
            last = now;
        }
        for s in shrinks {
            if patch.apply(DeformInstruction::PatchQRm { side: side_of(s.into()) }).is_ok() {
                let now = code_distance(&patch.layout().unwrap()).min();
                prop_assert!(now <= last, "shrink grew distance {last} -> {now}");
                last = now;
            }
        }
    }

    /// Incremental realization equals replay on the square lattice: random
    /// `DataQ_RM` / `SyndromeQ_RM` on interior, boundary and missing
    /// coordinates, growth and shrink on all four sides, and reintegration.
    /// Each case runs several sequences and must see instructions both
    /// apply and fail.
    #[test]
    fn square_kept_layout_equals_journal_replay(
        runs in prop::collection::vec(
            (3usize..7, 3usize..7, prop::collection::vec((0u8..8, 0usize..64, 0usize..64), 1..10)),
            6..7,
        )
    ) {
        let (mut applied, mut failed) = (0, 0);
        for (rows, cols, ops) in runs {
            let (a, f) = check_incremental(Lattice::Square, rows, cols, &ops);
            applied += a;
            failed += f;
        }
        prop_assert!(applied > 0 && failed > 0, "{applied} applied, {failed} failed");
    }

    /// The same on heavy-hex patches (3×3 to 5×5) with the `AncQ_RM_*`
    /// bridge instructions in place of `SyndromeQ_RM`.
    #[test]
    fn heavy_hex_kept_layout_equals_journal_replay(
        runs in prop::collection::vec(
            (3usize..6, 3usize..6, prop::collection::vec((0u8..8, 0usize..64, 0usize..64), 1..10)),
            6..7,
        )
    ) {
        let (mut applied, mut failed) = (0, 0);
        for (rows, cols, ops) in runs {
            let (a, f) = check_incremental(Lattice::HeavyHex, rows, cols, &ops);
            applied += a;
            failed += f;
        }
        prop_assert!(applied > 0 && failed > 0, "{applied} applied, {failed} failed");
    }

    /// Superstabilizer formation conserves stabilizer-count bookkeeping:
    /// every interior DataQ_RM converts 4 stabilizers into 2 superstabilizers
    /// (or fewer at boundaries), never increasing the total.
    #[test]
    fn stabilizer_count_never_increases(r in 0usize..7, c in 0usize..7) {
        let d = 7;
        let mut patch = DeformedPatch::new(Lattice::Square, d, d);
        let before = patch.layout().unwrap().stabilizers.len();
        if patch.apply(DeformInstruction::DataQRm { qubit: data_coord(r, c) }).is_ok() {
            let after = patch.layout().unwrap().stabilizers.len();
            prop_assert!(after < before);
            prop_assert!(after + 4 >= before, "lost too many stabilizers: {before} -> {after}");
        }
    }
}
