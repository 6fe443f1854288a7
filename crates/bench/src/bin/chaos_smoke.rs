//! Chaos smoke for the hardened LER engine: runs a tiny fixed-seed
//! workload twice — once clean, once with decoder faults injected at
//! chosen chunks — and checks that the engine survives every injection on
//! its degradation ladder with a bit-identical logical-error estimate.
//! The degradation report is written as JSON for CI to assert on.
//!
//! Flags: `--shots N` (default 20 000), `--threads N` (default auto),
//! `--out PATH` (default `CHAOS_report.json`),
//! `--faults SPEC` (default `panic@0,corrupt@1,stall@2,badweights@3`;
//! the `kind@chunk,...` grammar of `caliqec_match::FaultPlan::parse`).
//!
//! Exit codes: 0 success, 1 recovery-contract violation (estimate drifted
//! or the fault accounting is inconsistent), 2 bad `--faults` spec,
//! 4 cannot write the report.

use caliqec_code::{memory_circuit, rotated_patch, MemoryBasis, NoiseModel};
use caliqec_match::{
    graph_for_circuit, EngineRun, FaultPlan, LerEngine, RunSpec, SampleOptions, Tiered,
    UnionFindDecoder,
};
use caliqec_stab::CompiledCircuit;
use std::fmt::Write as _;
use std::process::ExitCode;

/// Silences the default panic hook for the engine's worker threads so the
/// injected panics (caught and retried by the engine) don't spray
/// backtrace noise over the report. Panics on any other thread still
/// print normally.
fn quiet_worker_panics() {
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let worker = std::thread::current()
            .name()
            .is_some_and(|n| n.starts_with("caliqec-ler-"));
        if !worker {
            default_hook(info);
        }
    }));
}

fn main() -> ExitCode {
    let shots = caliqec_bench::usize_from_args("shots", 20_000);
    let threads = caliqec_bench::threads_from_args();
    let out = caliqec_bench::string_from_args("out", "CHAOS_report.json");
    let spec = caliqec_bench::string_from_args("faults", "panic@0,corrupt@1,stall@2,badweights@3");
    let plan = match FaultPlan::parse(&spec) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("chaos_smoke: error: --faults {spec:?}: {e}");
            return ExitCode::from(2);
        }
    };
    quiet_worker_panics();

    let (d, p, seed) = (5usize, 3e-3, 0xC4A05E_u64);
    let mem = memory_circuit(
        &rotated_patch(d, d),
        &NoiseModel::uniform(p),
        d,
        MemoryBasis::Z,
    );
    let compiled = CompiledCircuit::new(&mem.circuit);
    let graph = graph_for_circuit(&mem.circuit);
    let factory = Tiered::new(&graph, {
        let graph = graph.clone();
        move || UnionFindDecoder::new(graph.clone())
    });
    let options = SampleOptions {
        min_shots: shots,
        ..Default::default()
    };

    eprintln!("chaos_smoke: d={d}, {shots} shots, faults {spec:?}...");
    let clean = LerEngine::new(threads).estimate(&compiled, &factory, options, seed);
    let chaos = match LerEngine::new(threads).with_faults(plan).try_run(
        &compiled,
        &factory,
        &RunSpec::from(options),
        seed,
    ) {
        Ok(run) => run,
        Err(e) => {
            eprintln!("chaos_smoke: error: engine did not recover: {e}");
            return ExitCode::from(1);
        }
    };

    let mut violations: Vec<String> = Vec::new();
    if clean.faulted_chunks != 0 || clean.degraded_shots != 0 {
        violations.push(format!(
            "clean run reports faults ({} chunks, {} degraded shots)",
            clean.faulted_chunks, clean.degraded_shots
        ));
    }
    if (chaos.estimate.shots, chaos.estimate.failures)
        != (clean.estimate.shots, clean.estimate.failures)
    {
        violations.push(format!(
            "estimate drifted under injection: clean {}/{}, chaos {}/{}",
            clean.estimate.failures,
            clean.estimate.shots,
            chaos.estimate.failures,
            chaos.estimate.shots
        ));
    }
    if chaos.faulted_chunks == 0 {
        violations.push("no injected fault fired".to_string());
    }
    if chaos.faulted_chunks != chaos.retried_chunks {
        violations.push(format!(
            "fault accounting inconsistent: {} faults vs {} retries",
            chaos.faulted_chunks, chaos.retried_chunks
        ));
    }
    if !chaos.degraded() {
        violations.push("faults fired but the run does not report degradation".to_string());
    }

    let json = report_json(&spec, &clean, &chaos, violations.is_empty());
    if let Err(e) = std::fs::write(&out, &json) {
        eprintln!("chaos_smoke: error: writing {out}: {e}");
        return ExitCode::from(4);
    }
    eprintln!("chaos_smoke: wrote {out}");

    if violations.is_empty() {
        eprintln!(
            "chaos_smoke: ok — {} faults ({} panic, {} stall, {} graph) recovered, \
             {} shots on degraded rungs, estimate bit-identical",
            chaos.faulted_chunks,
            chaos.panic_faults,
            chaos.stall_faults,
            chaos.graph_faults,
            chaos.degraded_shots,
        );
        ExitCode::SUCCESS
    } else {
        for v in &violations {
            eprintln!("chaos_smoke: violation: {v}");
        }
        ExitCode::from(1)
    }
}

/// Serializes the degradation report (hand-rolled, like perf_smoke).
fn report_json(spec: &str, clean: &EngineRun, chaos: &EngineRun, recovered: bool) -> String {
    let mut rungs = String::new();
    for (i, c) in chaos.rung_chunks.iter().enumerate() {
        if i > 0 {
            rungs.push_str(", ");
        }
        write!(rungs, "{c}").expect("write to string");
    }
    format!(
        concat!(
            "{{\n",
            "  \"faults\": \"{}\",\n",
            "  \"threads\": {},\n",
            "  \"shots\": {},\n",
            "  \"failures\": {},\n",
            "  \"clean_shots\": {},\n",
            "  \"clean_failures\": {},\n",
            "  \"recovered_bit_identical\": {},\n",
            "  \"faulted_chunks\": {},\n",
            "  \"retried_chunks\": {},\n",
            "  \"degraded_shots\": {},\n",
            "  \"rung_chunks\": [{}],\n",
            "  \"panic_faults\": {},\n",
            "  \"stall_faults\": {},\n",
            "  \"graph_faults\": {}\n",
            "}}\n"
        ),
        spec.replace('"', "'"),
        chaos.threads,
        chaos.estimate.shots,
        chaos.estimate.failures,
        clean.estimate.shots,
        clean.estimate.failures,
        recovered,
        chaos.faulted_chunks,
        chaos.retried_chunks,
        chaos.degraded_shots,
        rungs,
        chaos.panic_faults,
        chaos.stall_faults,
        chaos.graph_faults,
    )
}
