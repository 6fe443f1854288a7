//! The QECali code-deformation instruction sets (paper Sec. 2.2, Sec. 6,
//! Table 1).
//!
//! Square lattice: [`DeformInstruction::DataQRm`],
//! [`DeformInstruction::SyndromeQRm`], [`DeformInstruction::PatchQRm`],
//! [`DeformInstruction::PatchQAd`].
//!
//! Heavy-hexagon: `DataQRm`, [`DeformInstruction::AncQRmHorDeg2`],
//! [`DeformInstruction::AncQRmVerDeg2`], [`DeformInstruction::AncQRmDeg3`],
//! `PatchQRm`, `PatchQAd`.
//!
//! Each instruction rewrites a [`PatchLayout`] — forming superstabilizers
//! that exclude the isolated qubits (so those qubits can be calibrated while
//! QEC continues on the rest) — and every application is validated against
//! the layout invariants plus gauge-level commutation.
//!
//! Patch growth/shrink ([`DeformInstruction::PatchQAd`] / `PatchQRm`) is
//! managed by [`DeformedPatch`], which journals interior instructions and
//! replays them on the resized pristine patch; this matches the paper's usage
//! (enlargement restores the distance lost to interior isolation). Interior
//! instructions rewrite the patch's kept layout instead of replaying the
//! journal.

use crate::heavyhex::{bridge_role, heavy_hex_patch, BridgeRole};
use crate::layout::{
    support_product, ChainPart, Coord, LayoutError, PatchLayout, Readout, StabKind, Stabilizer,
};
use crate::square::{rotated_patch, PITCH};
use std::collections::BTreeSet;
use std::fmt;
use std::sync::OnceLock;

/// A patch boundary side.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Side {
    /// X-type boundary at the top (smaller rows).
    Top,
    /// X-type boundary at the bottom.
    Bottom,
    /// Z-type boundary at the left (smaller columns).
    Left,
    /// Z-type boundary at the right.
    Right,
}

/// The lattice family of a patch.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Lattice {
    /// Rotated square lattice (Rigetti-style, paper Fig. 3a).
    Square,
    /// Heavy-hexagon lattice (IBM-style, paper Fig. 3d).
    HeavyHex,
}

/// One instruction of the QECali deformation instruction set (paper Table 1).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum DeformInstruction {
    /// Remove (isolate) a data qubit, merging the surrounding stabilizers
    /// into superstabilizers that exclude it (paper Fig. 4a).
    DataQRm {
        /// The data qubit to isolate.
        qubit: Coord,
    },
    /// Remove a square-lattice syndrome qubit: its stabilizer's data qubits
    /// are measured out and the neighbouring stabilizers reform around the
    /// hole (paper Fig. 4b).
    SyndromeQRm {
        /// The syndrome ancilla to isolate.
        ancilla: Coord,
    },
    /// Heavy-hex: remove a *horizontal* degree-2 bridge ancilla, splitting
    /// the stabilizer into two gauge halves (paper Fig. 8c).
    AncQRmHorDeg2 {
        /// The bridge ancilla to isolate.
        ancilla: Coord,
    },
    /// Heavy-hex: remove a *vertical* degree-2 bridge ancilla; one data qubit
    /// is pinned as a gauge qubit and leaves the code (paper Fig. 8d).
    AncQRmVerDeg2 {
        /// The bridge ancilla to isolate.
        ancilla: Coord,
    },
    /// Heavy-hex: remove a degree-3 (data-attached) bridge ancilla; the
    /// attached data qubit becomes a gauge qubit and leaves the code (paper
    /// Fig. 8e).
    AncQRmDeg3 {
        /// The bridge ancilla to isolate.
        ancilla: Coord,
    },
    /// Shrink the patch by one row/column at `side` (paper Fig. 4c).
    PatchQRm {
        /// The boundary to shrink.
        side: Side,
    },
    /// Expand the patch by one row/column at `side` (paper Fig. 4d).
    PatchQAd {
        /// The boundary to grow.
        side: Side,
    },
}

/// Failure while applying a deformation instruction.
#[derive(Clone, Debug, PartialEq)]
pub enum DeformError {
    /// The coordinate is not a data qubit of the layout.
    UnknownQubit(Coord),
    /// The coordinate is not an ancilla of the layout.
    UnknownAncilla(Coord),
    /// The ancilla exists but has the wrong role for the instruction.
    WrongRole {
        /// The offending ancilla.
        ancilla: Coord,
        /// The role required by the instruction.
        expected: BridgeRole,
        /// The role found in the layout.
        found: BridgeRole,
    },
    /// A logical operator could not be routed away from the removed qubit
    /// (the deformation would destroy the encoded state).
    LogicalRerouteFailed {
        /// The qubit being isolated.
        qubit: Coord,
        /// The logical operator type that could not be rerouted.
        kind: StabKind,
    },
    /// The patch is too small to shrink further.
    PatchTooSmall,
    /// The instruction requires the other lattice family.
    WrongLattice {
        /// The lattice the instruction needs.
        required: Lattice,
    },
    /// The rewritten layout violates an invariant (the instruction sequence
    /// is not jointly applicable).
    InvalidResult(LayoutError),
    /// Two gauge parts (or a gauge part and a stabilizer/logical) anticommute
    /// after the rewrite.
    GaugeConflict,
}

impl fmt::Display for DeformError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DeformError::UnknownQubit(q) => write!(f, "no data qubit at {q}"),
            DeformError::UnknownAncilla(a) => write!(f, "no ancilla at {a}"),
            DeformError::WrongRole {
                ancilla,
                expected,
                found,
            } => write!(
                f,
                "ancilla {ancilla} has role {found:?}, instruction requires {expected:?}"
            ),
            DeformError::LogicalRerouteFailed { qubit, kind } => write!(
                f,
                "cannot route logical {kind:?} away from {qubit}; distance collapsed"
            ),
            DeformError::PatchTooSmall => write!(f, "patch too small to shrink"),
            DeformError::WrongLattice { required } => {
                write!(f, "instruction requires the {required:?} lattice")
            }
            DeformError::InvalidResult(e) => write!(f, "deformed layout invalid: {e}"),
            DeformError::GaugeConflict => write!(f, "gauge operators anticommute after rewrite"),
        }
    }
}

impl std::error::Error for DeformError {}

impl From<LayoutError> for DeformError {
    fn from(e: LayoutError) -> Self {
        DeformError::InvalidResult(e)
    }
}

// ---------------------------------------------------------------------------
// Layout-mutation primitives
// ---------------------------------------------------------------------------

/// Routes both logical operators away from `q` (before isolating it).
///
/// A logical of the same type as an announced basis measurement simply drops
/// the qubit (the measured value is folded into the Pauli frame); the
/// opposite-type logical is multiplied by a stabilizer containing `q`.
fn reroute_logicals(
    layout: &mut PatchLayout,
    q: Coord,
    measured: Option<StabKind>,
) -> Result<(), DeformError> {
    for kind in [StabKind::Z, StabKind::X] {
        let contains = match kind {
            StabKind::Z => layout.logical_z.contains(&q),
            StabKind::X => layout.logical_x.contains(&q),
        };
        if !contains {
            continue;
        }
        if measured == Some(kind) {
            match kind {
                StabKind::Z => layout.logical_z.remove(&q),
                StabKind::X => layout.logical_x.remove(&q),
            };
            continue;
        }
        let stab = layout
            .stabilizers_containing(q, kind)
            .first()
            .map(|&i| layout.stabilizers[i].support.clone());
        let Some(support) = stab else {
            return Err(DeformError::LogicalRerouteFailed { qubit: q, kind });
        };
        match kind {
            StabKind::Z => layout.logical_z = support_product(&layout.logical_z, &support),
            StabKind::X => layout.logical_x = support_product(&layout.logical_x, &support),
        }
    }
    Ok(())
}

/// Removes `q` from stabilizer `i`'s support and readout attachments.
fn drop_qubit_from_stab(layout: &mut PatchLayout, i: usize, q: Coord) {
    let s = &mut layout.stabilizers[i];
    s.support.remove(&q);
    if let Readout::Chain { parts } = &mut s.readout {
        for part in parts.iter_mut() {
            part.attach.retain(|&(_, d)| d != q);
        }
        parts.retain(|p| !p.attach.is_empty());
    }
}

/// Merges stabilizer `j` into stabilizer `i` (superstabilizer formation).
///
/// The merged support is the symmetric difference (the operator product);
/// the readout collapses to a direct coupling through one surviving ancilla
/// (physically: the gauge products are measured and multiplied classically —
/// see DESIGN.md).
fn merge_stabilizers(layout: &mut PatchLayout, i: usize, j: usize) {
    assert_ne!(i, j);
    let (lo, hi) = (i.min(j), i.max(j));
    let b = layout.stabilizers.remove(hi);
    let a = layout.stabilizers.remove(lo);
    debug_assert_eq!(a.kind, b.kind);
    let merged = Stabilizer {
        kind: a.kind,
        support: support_product(&a.support, &b.support),
        readout: Readout::Direct {
            ancilla: a.readout.measured_qubits()[0],
        },
        merged_from: a.merged_from + b.merged_from,
    };
    layout.stabilizers.push(merged);
}

/// Isolates data qubit `q` from the code.
///
/// `measured` announces a single-qubit basis measurement accompanying the
/// isolation: same-basis stabilizers simply drop the qubit; opposite-basis
/// ones merge into superstabilizers (or are absorbed into the boundary when
/// only one contains the qubit).
fn isolate_data_qubit(
    layout: &mut PatchLayout,
    q: Coord,
    measured: Option<StabKind>,
) -> Result<(), DeformError> {
    if !layout.data.contains(&q) {
        return Err(DeformError::UnknownQubit(q));
    }
    reroute_logicals(layout, q, measured)?;
    for kind in [StabKind::X, StabKind::Z] {
        let idxs = layout.stabilizers_containing(q, kind);
        if measured == Some(kind) {
            for &i in &idxs {
                drop_qubit_from_stab(layout, i, q);
            }
        } else {
            match idxs[..] {
                [] => {}
                [only] => {
                    layout.stabilizers.remove(only);
                }
                [a, b] => merge_stabilizers(layout, a, b),
                _ => unreachable!("validation bounds same-type membership at 2"),
            }
        }
    }
    layout.stabilizers.retain(|s| !s.support.is_empty());
    layout.data.remove(&q);
    layout.boundary.left.remove(&q);
    layout.boundary.right.remove(&q);
    layout.boundary.top.remove(&q);
    layout.boundary.bottom.remove(&q);
    Ok(())
}

/// Checks gauge-level commutation: every chain gauge part must overlap evenly
/// with every opposite-type stabilizer, opposite-type gauge part, and the
/// opposite logical operator.
pub fn check_gauge_commutation(layout: &PatchLayout) -> Result<(), DeformError> {
    let parts: Vec<(StabKind, BTreeSet<Coord>)> = layout
        .stabilizers
        .iter()
        .filter_map(|s| match &s.readout {
            Readout::Chain { parts } if parts.len() > 1 => Some(
                parts
                    .iter()
                    .map(move |p| (s.kind, p.gauge_support()))
                    .collect::<Vec<_>>(),
            ),
            _ => None,
        })
        .flatten()
        .collect();
    for (kind, gauge) in &parts {
        for s in &layout.stabilizers {
            if s.kind != *kind && s.support.intersection(gauge).count() % 2 == 1 {
                return Err(DeformError::GaugeConflict);
            }
        }
        for (okind, other) in &parts {
            if okind != kind && other.intersection(gauge).count() % 2 == 1 {
                return Err(DeformError::GaugeConflict);
            }
        }
        let logical = match kind {
            StabKind::X => &layout.logical_z,
            StabKind::Z => &layout.logical_x,
        };
        if logical.intersection(gauge).count() % 2 == 1 {
            return Err(DeformError::GaugeConflict);
        }
    }
    Ok(())
}

/// Removes a bridge ancilla (heavy-hex), splitting its stabilizer's chain
/// into gauge parts, pinning singleton-attached data qubits out of the code,
/// and merging whatever opposite-type stabilizers the surviving gauges
/// require.
fn remove_bridge_ancilla(
    layout: &mut PatchLayout,
    ancilla: Coord,
    expected: BridgeRole,
) -> Result<(), DeformError> {
    // Locate the stabilizer and chain position.
    let mut found: Option<(usize, usize, usize)> = None;
    'outer: for (si, s) in layout.stabilizers.iter().enumerate() {
        if let Readout::Chain { parts } = &s.readout {
            for (pi, part) in parts.iter().enumerate() {
                if let Some(ci) = part.chain.iter().position(|&a| a == ancilla) {
                    found = Some((si, pi, ci));
                    break 'outer;
                }
            }
        }
    }
    let Some((si, pi, ci)) = found else {
        return Err(DeformError::UnknownAncilla(ancilla));
    };
    let role = bridge_role(&layout.stabilizers[si], ancilla).expect("role of located ancilla");
    if role != expected {
        return Err(DeformError::WrongRole {
            ancilla,
            expected,
            found: role,
        });
    }

    // Split the chain part at the removed ancilla.
    let stab_kind = layout.stabilizers[si].kind;
    let part = match &mut layout.stabilizers[si].readout {
        Readout::Chain { parts } => parts.remove(pi),
        Readout::Direct { .. } => unreachable!("located within a chain"),
    };
    let mut pinned: Vec<Coord> = Vec::new();
    let mut kept: Vec<ChainPart> = Vec::new();
    // A removed attachment node orphans its data qubit (AncQ_RM_Deg3): the
    // qubit becomes a gauge qubit and leaves the code (paper Fig. 8e).
    if let Some(&(_, d)) = part.attach.iter().find(|&&(k, _)| k == ci) {
        pinned.push(d);
    }
    let pieces = [
        ChainPart {
            chain: part.chain[..ci].to_vec(),
            attach: part
                .attach
                .iter()
                .filter(|&&(k, _)| k < ci)
                .copied()
                .collect(),
        },
        ChainPart {
            chain: part.chain[ci + 1..].to_vec(),
            attach: part
                .attach
                .iter()
                .filter(|&&(k, _)| k > ci)
                .map(|&(k, d)| (k - ci - 1, d))
                .collect(),
        },
    ];
    for piece in pieces {
        if piece.chain.is_empty() || piece.attach.is_empty() {
            continue; // dangling ancillas are simply freed
        }
        if piece.attach.len() == 1 {
            pinned.push(piece.attach[0].1);
        } else {
            kept.push(piece);
        }
    }
    match &mut layout.stabilizers[si].readout {
        Readout::Chain { parts } => parts.extend(kept),
        Readout::Direct { .. } => unreachable!(),
    }
    let survives = match &layout.stabilizers[si].readout {
        Readout::Chain { parts } => !parts.is_empty(),
        Readout::Direct { .. } => true,
    };
    if !survives {
        layout.stabilizers.remove(si);
    }

    // Pinned qubits leave the code, measured in the split stabilizer's basis
    // (the singleton gauge is a single-qubit measurement in that basis).
    for q in pinned {
        isolate_data_qubit(layout, q, Some(stab_kind))?;
    }

    // Repair gauge commutation: merge opposite-type stabilizers that overlap
    // a surviving gauge part oddly, grouped by their parity pattern.
    repair_gauge_commutation(layout)?;
    check_gauge_commutation(layout)?;
    layout.validate()?;
    Ok(())
}

/// Merges (or absorbs) opposite-type stabilizers whose overlap with some
/// gauge part is odd, pairing stabilizers with identical parity patterns.
fn repair_gauge_commutation(layout: &mut PatchLayout) -> Result<(), DeformError> {
    loop {
        // Gather gauge parts.
        let parts: Vec<(StabKind, BTreeSet<Coord>)> = layout
            .stabilizers
            .iter()
            .filter_map(|s| match &s.readout {
                Readout::Chain { parts } if parts.len() > 1 => Some(
                    parts
                        .iter()
                        .map(move |p| (s.kind, p.gauge_support()))
                        .collect::<Vec<_>>(),
                ),
                _ => None,
            })
            .flatten()
            .collect();
        if parts.is_empty() {
            return Ok(());
        }
        // Parity pattern of every stabilizer against opposite-type parts.
        let mut patterns: Vec<(usize, Vec<bool>)> = Vec::new();
        for (i, s) in layout.stabilizers.iter().enumerate() {
            let pat: Vec<bool> = parts
                .iter()
                .map(|(kind, gauge)| {
                    s.kind != *kind && s.support.intersection(gauge).count() % 2 == 1
                })
                .collect();
            if pat.iter().any(|&b| b) {
                patterns.push((i, pat));
            }
        }
        // A logical operator anticommuting with a gauge part must be rerouted
        // by multiplying it with a same-type stabilizer carrying the same
        // parity pattern (gauge fixing moves the logical representative off
        // the measured gauge).
        for logical_kind in [StabKind::Z, StabKind::X] {
            let logical = match logical_kind {
                StabKind::Z => layout.logical_z.clone(),
                StabKind::X => layout.logical_x.clone(),
            };
            let pat: Vec<bool> = parts
                .iter()
                .map(|(kind, gauge)| {
                    *kind != logical_kind && logical.intersection(gauge).count() % 2 == 1
                })
                .collect();
            if !pat.iter().any(|&b| b) {
                continue;
            }
            let Some((fix_idx, _)) = patterns
                .iter()
                .find(|(i, p)| layout.stabilizers[*i].kind == logical_kind && *p == pat)
            else {
                return Err(DeformError::GaugeConflict);
            };
            let support = layout.stabilizers[*fix_idx].support.clone();
            match logical_kind {
                StabKind::Z => layout.logical_z = support_product(&layout.logical_z, &support),
                StabKind::X => layout.logical_x = support_product(&layout.logical_x, &support),
            }
            // Patterns of stabilizers are unchanged by the logical reroute;
            // restart the loop so the logical parities are recomputed.
            continue;
        }
        if patterns.is_empty() {
            return Ok(());
        }
        // Find two stabilizers of the same kind with identical patterns.
        let mut acted = false;
        'search: for a in 0..patterns.len() {
            for b in (a + 1)..patterns.len() {
                let (ia, pa) = &patterns[a];
                let (ib, pb) = &patterns[b];
                if pa == pb && layout.stabilizers[*ia].kind == layout.stabilizers[*ib].kind {
                    merge_stabilizers(layout, *ia, *ib);
                    acted = true;
                    break 'search;
                }
            }
        }
        if !acted {
            // No pairable partner: absorb the first conflicting stabilizer
            // into the boundary (remove it).
            let (i, _) = patterns[0];
            layout.stabilizers.remove(i);
        }
    }
}

// ---------------------------------------------------------------------------
// The journaled patch
// ---------------------------------------------------------------------------

/// A surface-code patch under deformation: a pristine `rows × cols` base plus
/// a journal of interior instructions.
///
/// `PatchQAd` / `PatchQRm` resize the base (replaying the journal on the new
/// pristine patch); all other instructions append to the journal.
///
/// The patch keeps its realized layout (or the error realizing it gave)
/// once something has asked for it. An interior instruction rewrites that
/// layout once, so `k` isolations cost `k` rewrites rather than
/// `k(k+1)/2`; resizing replays the journal, and reintegration drops the
/// kept layout until it is next needed. Either way the kept layout equals a
/// replay of [`DeformedPatch::journal`] onto [`DeformedPatch::pristine`].
///
/// # Examples
///
/// ```
/// use caliqec_code::{DeformInstruction, DeformedPatch, Lattice};
/// use caliqec_code::Coord;
///
/// let mut patch = DeformedPatch::new(Lattice::Square, 5, 5);
/// let d0 = patch.layout().unwrap().data.iter().copied().nth(12).unwrap();
/// patch.apply(DeformInstruction::DataQRm { qubit: d0 }).unwrap();
/// let layout = patch.layout().unwrap();
/// assert_eq!(layout.data.len(), 24);
/// assert!(layout.num_superstabilizers() > 0);
/// ```
#[derive(Clone, Debug)]
pub struct DeformedPatch {
    lattice: Lattice,
    rows: usize,
    cols: usize,
    journal: Vec<DeformInstruction>,
    /// The journal replayed onto the pristine base: realized on first use,
    /// updated by `apply`, dropped by reintegration.
    realized: OnceLock<Result<PatchLayout, DeformError>>,
}

impl DeformedPatch {
    /// Creates an undeformed `rows × cols` patch of the given lattice.
    pub fn new(lattice: Lattice, rows: usize, cols: usize) -> DeformedPatch {
        DeformedPatch {
            lattice,
            rows,
            cols,
            journal: Vec::new(),
            realized: OnceLock::new(),
        }
    }

    /// Current number of data-qubit rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Current number of data-qubit columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// The lattice family.
    pub fn lattice(&self) -> Lattice {
        self.lattice
    }

    /// The journaled interior instructions.
    pub fn journal(&self) -> &[DeformInstruction] {
        &self.journal
    }

    /// Generates the pristine base layout (no journal applied).
    pub fn pristine(&self) -> PatchLayout {
        match self.lattice {
            Lattice::Square => rotated_patch(self.rows, self.cols),
            Lattice::HeavyHex => heavy_hex_patch(self.rows, self.cols),
        }
    }

    /// The current deformed layout (pristine base + journal).
    ///
    /// # Errors
    ///
    /// Fails when the journal is no longer applicable (e.g. after shrinking
    /// the patch onto a removed qubit).
    pub fn layout(&self) -> Result<PatchLayout, DeformError> {
        self.realized
            .get_or_init(|| replay(self.pristine(), self.lattice, &self.journal))
            .clone()
    }

    /// Applies one instruction, returning the resulting layout.
    ///
    /// # Errors
    ///
    /// On failure the patch is left unchanged.
    pub fn apply(&mut self, instr: DeformInstruction) -> Result<PatchLayout, DeformError> {
        let mut next = DeformedPatch {
            journal: self.journal.clone(),
            realized: OnceLock::new(),
            ..*self
        };
        match instr {
            DeformInstruction::PatchQAd { side } => {
                match side {
                    Side::Bottom => next.rows += 1,
                    Side::Right => next.cols += 1,
                    Side::Top => {
                        next.rows += 1;
                        next.shift_journal(PITCH, 0);
                    }
                    Side::Left => {
                        next.cols += 1;
                        next.shift_journal(0, PITCH);
                    }
                };
            }
            DeformInstruction::PatchQRm { side } => {
                if (matches!(side, Side::Top | Side::Bottom) && next.rows <= 2)
                    || (matches!(side, Side::Left | Side::Right) && next.cols <= 2)
                {
                    return Err(DeformError::PatchTooSmall);
                }
                match side {
                    Side::Bottom => next.rows -= 1,
                    Side::Right => next.cols -= 1,
                    Side::Top => {
                        next.rows -= 1;
                        next.shift_journal(-PITCH, 0);
                    }
                    Side::Left => {
                        next.cols -= 1;
                        next.shift_journal(0, -PITCH);
                    }
                }
            }
            other => return self.apply_journaled(other),
        }
        let layout = next.layout()?;
        *self = next;
        Ok(layout)
    }

    /// Appends an interior instruction. A kept layout is the journal's
    /// replay, so rewriting it once gives the replay of the extended
    /// journal; without one (not realized yet, or the journal no longer
    /// realizes) the extended journal is replayed in full.
    fn apply_journaled(&mut self, instr: DeformInstruction) -> Result<PatchLayout, DeformError> {
        let layout = match self.realized.get() {
            Some(Ok(kept)) => replay(kept.clone(), self.lattice, &[instr]),
            _ => replay(
                self.pristine(),
                self.lattice,
                &[&self.journal[..], &[instr]].concat(),
            ),
        }?;
        self.journal.push(instr);
        self.realized = OnceLock::from(Ok(layout.clone()));
        Ok(layout)
    }

    /// Reverses the most recent interior instruction (qubit reintegration).
    ///
    /// Reintegration resets the isolated qubits and re-measures the original
    /// stabilizers (paper Sec. 2.2); at the layout level this is exactly
    /// dropping the journal entry.
    ///
    /// Returns the reintegrated instruction, or `None` when the journal is
    /// empty.
    pub fn reintegrate_last(&mut self) -> Option<DeformInstruction> {
        let instr = self.journal.pop()?;
        self.realized = OnceLock::new();
        Some(instr)
    }

    /// Removes every journaled instruction (full reintegration).
    pub fn reintegrate_all(&mut self) {
        self.journal.clear();
        self.realized = OnceLock::new();
    }

    fn shift_journal(&mut self, dr: i32, dc: i32) {
        for instr in &mut self.journal {
            match instr {
                DeformInstruction::DataQRm { qubit } => {
                    qubit.r += dr;
                    qubit.c += dc;
                }
                DeformInstruction::SyndromeQRm { ancilla }
                | DeformInstruction::AncQRmHorDeg2 { ancilla }
                | DeformInstruction::AncQRmVerDeg2 { ancilla }
                | DeformInstruction::AncQRmDeg3 { ancilla } => {
                    ancilla.r += dr;
                    ancilla.c += dc;
                }
                DeformInstruction::PatchQAd { .. } | DeformInstruction::PatchQRm { .. } => {}
            }
        }
    }
}

/// Applies `journal` to `layout` in order, then checks the result.
fn replay(
    mut layout: PatchLayout,
    lattice: Lattice,
    journal: &[DeformInstruction],
) -> Result<PatchLayout, DeformError> {
    for instr in journal {
        apply_interior(&mut layout, lattice, *instr)?;
    }
    layout.validate()?;
    check_gauge_commutation(&layout)?;
    Ok(layout)
}

/// Applies an interior (non-resizing) instruction to a layout.
pub fn apply_interior(
    layout: &mut PatchLayout,
    lattice: Lattice,
    instr: DeformInstruction,
) -> Result<(), DeformError> {
    match instr {
        DeformInstruction::DataQRm { qubit } => {
            isolate_data_qubit(layout, qubit, None)?;
            layout.validate()?;
            check_gauge_commutation(layout)?;
            Ok(())
        }
        DeformInstruction::SyndromeQRm { ancilla } => {
            if lattice != Lattice::Square {
                return Err(DeformError::WrongLattice {
                    required: Lattice::Square,
                });
            }
            let Some(si) = layout.stabilizers.iter().position(
                |s| matches!(&s.readout, Readout::Direct { ancilla: a } if *a == ancilla),
            ) else {
                return Err(DeformError::UnknownAncilla(ancilla));
            };
            let s = layout.stabilizers.remove(si);
            for q in s.support {
                isolate_data_qubit(layout, q, Some(s.kind))?;
            }
            layout.validate()?;
            Ok(())
        }
        DeformInstruction::AncQRmHorDeg2 { ancilla } => {
            require_heavy_hex(lattice)?;
            remove_bridge_ancilla(layout, ancilla, BridgeRole::MidBridge)
        }
        DeformInstruction::AncQRmVerDeg2 { ancilla } => {
            require_heavy_hex(lattice)?;
            remove_bridge_ancilla(layout, ancilla, BridgeRole::OuterBridge)
        }
        DeformInstruction::AncQRmDeg3 { ancilla } => {
            require_heavy_hex(lattice)?;
            remove_bridge_ancilla(layout, ancilla, BridgeRole::Attach)
        }
        DeformInstruction::PatchQAd { .. } | DeformInstruction::PatchQRm { .. } => {
            unreachable!("resizing instructions are handled by DeformedPatch::apply")
        }
    }
}

fn require_heavy_hex(lattice: Lattice) -> Result<(), DeformError> {
    if lattice != Lattice::HeavyHex {
        return Err(DeformError::WrongLattice {
            required: Lattice::HeavyHex,
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::square::data_coord;

    #[test]
    fn data_q_rm_merges_stabilizers() {
        let mut patch = DeformedPatch::new(Lattice::Square, 5, 5);
        let q = data_coord(2, 2); // interior qubit
        let before = patch.layout().unwrap();
        let nx = before.stabilizers_containing(q, StabKind::X).len();
        let nz = before.stabilizers_containing(q, StabKind::Z).len();
        assert_eq!((nx, nz), (2, 2));
        let after = patch
            .apply(DeformInstruction::DataQRm { qubit: q })
            .unwrap();
        assert_eq!(after.data.len(), 24);
        assert_eq!(after.num_superstabilizers(), 2);
        assert_eq!(after.stabilizers.len(), before.stabilizers.len() - 2);
    }

    #[test]
    fn data_q_rm_near_logical_reroutes() {
        let mut patch = DeformedPatch::new(Lattice::Square, 5, 5);
        let q = data_coord(0, 2); // on the logical-Z chain (top row)
        let layout = patch
            .apply(DeformInstruction::DataQRm { qubit: q })
            .unwrap();
        assert!(!layout.logical_z.contains(&q));
        layout.validate().unwrap();
    }

    #[test]
    fn data_q_rm_unknown_qubit_fails_cleanly() {
        let mut patch = DeformedPatch::new(Lattice::Square, 3, 3);
        let err = patch
            .apply(DeformInstruction::DataQRm {
                qubit: Coord::new(999, 999),
            })
            .unwrap_err();
        assert!(matches!(err, DeformError::UnknownQubit(_)));
        assert!(patch.journal().is_empty());
    }

    #[test]
    fn syndrome_q_rm_carves_hole() {
        let mut patch = DeformedPatch::new(Lattice::Square, 5, 5);
        // Find an interior stabilizer's ancilla.
        let layout = patch.layout().unwrap();
        let stab = layout
            .stabilizers
            .iter()
            .find(|s| s.weight() == 4 && s.kind == StabKind::Z)
            .expect("interior Z stabilizer");
        let anc = stab.readout.measured_qubits()[0];
        let n_data_before = layout.data.len();
        let after = patch
            .apply(DeformInstruction::SyndromeQRm { ancilla: anc })
            .unwrap();
        assert_eq!(after.data.len(), n_data_before - 4);
        after.validate().unwrap();
    }

    #[test]
    fn syndrome_q_rm_requires_square() {
        let mut patch = DeformedPatch::new(Lattice::HeavyHex, 3, 3);
        let err = patch
            .apply(DeformInstruction::SyndromeQRm {
                ancilla: Coord::new(2, 2),
            })
            .unwrap_err();
        assert!(matches!(err, DeformError::WrongLattice { .. }));
    }

    #[test]
    fn patch_ad_then_rm_roundtrips() {
        let mut patch = DeformedPatch::new(Lattice::Square, 5, 5);
        patch
            .apply(DeformInstruction::PatchQAd { side: Side::Bottom })
            .unwrap();
        assert_eq!(patch.rows(), 6);
        patch
            .apply(DeformInstruction::PatchQRm { side: Side::Bottom })
            .unwrap();
        assert_eq!(patch.rows(), 5);
        assert_eq!(patch.layout().unwrap(), rotated_patch(5, 5));
    }

    #[test]
    fn patch_rm_too_small() {
        let mut patch = DeformedPatch::new(Lattice::Square, 3, 3);
        patch
            .apply(DeformInstruction::PatchQRm { side: Side::Right })
            .unwrap();
        let err = patch
            .apply(DeformInstruction::PatchQRm { side: Side::Right })
            .unwrap_err();
        assert_eq!(err, DeformError::PatchTooSmall);
    }

    #[test]
    fn top_growth_shifts_journal() {
        let mut patch = DeformedPatch::new(Lattice::Square, 5, 5);
        let q = data_coord(2, 2);
        patch
            .apply(DeformInstruction::DataQRm { qubit: q })
            .unwrap();
        patch
            .apply(DeformInstruction::PatchQAd { side: Side::Top })
            .unwrap();
        // The hole keeps its identity relative to the old patch content.
        let layout = patch.layout().unwrap();
        assert_eq!(layout.data.len(), 6 * 5 - 1);
        assert!(!layout.data.contains(&Coord::new(q.r + PITCH, q.c)));
    }

    #[test]
    fn reintegration_restores_pristine() {
        let mut patch = DeformedPatch::new(Lattice::Square, 5, 5);
        patch
            .apply(DeformInstruction::DataQRm {
                qubit: data_coord(2, 2),
            })
            .unwrap();
        patch
            .apply(DeformInstruction::DataQRm {
                qubit: data_coord(4, 4),
            })
            .unwrap();
        assert_eq!(
            patch.reintegrate_last(),
            Some(DeformInstruction::DataQRm {
                qubit: data_coord(4, 4),
            })
        );
        patch.reintegrate_all();
        assert_eq!(patch.layout().unwrap(), rotated_patch(5, 5));
    }

    #[test]
    fn heavy_hex_mid_bridge_split() {
        let mut patch = DeformedPatch::new(Lattice::HeavyHex, 5, 5);
        let layout = patch.layout().unwrap();
        // Pick an interior X stabilizer's vertical (middle) bridge ancilla.
        let stab = layout
            .stabilizers
            .iter()
            .find(|s| s.weight() == 4 && s.kind == StabKind::X)
            .expect("interior X stabilizer");
        let Readout::Chain { parts } = &stab.readout else {
            panic!()
        };
        let mid = parts[0].chain[3];
        let after = patch
            .apply(DeformInstruction::AncQRmHorDeg2 { ancilla: mid })
            .unwrap();
        // The stabilizer survives split into two gauge parts.
        let split = after
            .stabilizers
            .iter()
            .find(|s| matches!(&s.readout, Readout::Chain { parts } if parts.len() == 2));
        assert!(split.is_some(), "split stabilizer survives");
        after.validate().unwrap();
        check_gauge_commutation(&after).unwrap();
    }

    #[test]
    fn heavy_hex_mid_bridge_wrong_role_rejected() {
        let mut patch = DeformedPatch::new(Lattice::HeavyHex, 5, 5);
        let layout = patch.layout().unwrap();
        let stab = layout.stabilizers.iter().find(|s| s.weight() == 4).unwrap();
        let Readout::Chain { parts } = &stab.readout else {
            panic!()
        };
        let attach_node = parts[0].chain[0];
        let err = patch
            .apply(DeformInstruction::AncQRmHorDeg2 {
                ancilla: attach_node,
            })
            .unwrap_err();
        assert!(matches!(err, DeformError::WrongRole { .. }));
    }

    #[test]
    fn heavy_hex_deg3_pins_data_qubit() {
        let mut patch = DeformedPatch::new(Lattice::HeavyHex, 5, 5);
        let layout = patch.layout().unwrap();
        let stab = layout
            .stabilizers
            .iter()
            .find(|s| s.weight() == 4 && s.kind == StabKind::Z)
            .unwrap();
        let Readout::Chain { parts } = &stab.readout else {
            panic!()
        };
        // Remove the chain-end attachment (p0): its data qubit is pinned.
        let (k, pinned_data) = parts[0].attach[0];
        let node = parts[0].chain[k];
        let before_data = layout.data.len();
        let after = patch
            .apply(DeformInstruction::AncQRmDeg3 { ancilla: node })
            .unwrap();
        assert_eq!(after.data.len(), before_data - 1);
        assert!(!after.data.contains(&pinned_data));
        after.validate().unwrap();
    }
}
