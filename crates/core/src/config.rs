//! Framework configuration.

use caliqec_code::Lattice;
use caliqec_device::DriftDistribution;

/// Top-level configuration of a CaliQEC deployment.
#[derive(Clone, Copy, Debug)]
pub struct CaliqecConfig {
    /// Lattice family of the protected patch.
    pub lattice: Lattice,
    /// Code distance of the protected patch.
    pub distance: usize,
    /// Maximum tolerable code-distance loss during calibration (paper: 4).
    pub delta_d: usize,
    /// Freshly calibrated physical error rate.
    pub p0: f64,
    /// Targeted physical error rate gates must stay below.
    pub p_tar: f64,
    /// Drift-time distribution of the hardware.
    pub drift: DriftDistribution,
    /// Whether the patch is enlarged (`PatchQ_AD`) to compensate the
    /// distance lost to isolation (the full QECali scheme) or not (the
    /// isolation-only ablation of Fig. 10).
    pub enlarge: bool,
    /// Worker threads for Monte-Carlo sampling (0 = auto: the
    /// `CALIQEC_THREADS` environment variable if set, else all available
    /// cores — see `caliqec_stab::resolve_threads`).
    pub threads: usize,
    /// Monte-Carlo shots per runtime trace point (0 = model-only LER, no
    /// sampling). When positive, the runtime measures each trace point's
    /// LER with the parallel engine and reports it in
    /// [`crate::TracePoint::measured_ler`].
    pub mc_shots: usize,
}

impl Default for CaliqecConfig {
    fn default() -> Self {
        CaliqecConfig {
            lattice: Lattice::Square,
            distance: 11,
            delta_d: 4,
            p0: 1e-3,
            p_tar: 5e-3,
            drift: DriftDistribution::current(),
            enlarge: true,
            threads: 0,
            mc_shots: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper_setup() {
        let c = CaliqecConfig::default();
        assert_eq!(c.delta_d, 4);
        assert_eq!(c.distance, 11);
        assert!(c.p0 < c.p_tar);
        assert!(c.enlarge);
    }
}
