//! `perfbench` — one workload run of the solver benchmark.
//!
//! ```text
//! perfbench --workload <inspiral_fig12|q1_supervised|q1_overlap_2rank>
//!           --seed <n> --seconds <s> --trace <0|1> --scratch <dir>
//!           [--reference <reference.json>] [--tiny] [--perturb]
//! ```
//!
//! Sets the workload up from inputs generated from the seed, evolves it
//! for the time budget, checks the final state, and prints one JSON
//! object: the end-to-end metrics (`--trace 0`) or the per-layer metrics
//! (`--trace 1`), the exact counts, the operation counts and the verdict.
//! `perfbench/run.py` builds and drives this binary; see
//! `perfbench/README.md`.

mod layers;
mod util;
mod workload;

use gw_obs::json::Value;
use std::path::PathBuf;
use workload::{Opts, Workload};

fn usage(msg: &str) -> ! {
    eprintln!("perfbench: {msg}");
    eprintln!(
        "usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> \
         --scratch <dir> [--reference <file>] [--tiny] [--perturb]"
    );
    std::process::exit(2);
}

fn parse_args() -> Opts {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let (mut scratch, mut reference, mut tiny, mut perturb) = (None, None, false, false);
    while let Some(a) = args.next() {
        let mut val = || args.next().unwrap_or_else(|| usage(&format!("{a} needs a value")));
        match a.as_str() {
            "--workload" => {
                let v = val();
                workload = Some(
                    Workload::parse(&v).unwrap_or_else(|| usage(&format!("unknown workload {v}"))),
                );
            }
            "--seed" => seed = Some(val().parse().unwrap_or_else(|_| usage("bad --seed"))),
            "--seconds" => seconds = Some(val().parse().unwrap_or_else(|_| usage("bad --seconds"))),
            "--trace" => {
                trace = Some(match val().as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage("--trace takes 0 or 1"),
                })
            }
            "--scratch" => scratch = Some(PathBuf::from(val())),
            "--reference" => reference = Some(PathBuf::from(val())),
            "--tiny" => tiny = true,
            "--perturb" => perturb = true,
            other => usage(&format!("unknown argument {other}")),
        }
    }
    Opts {
        workload: workload.unwrap_or_else(|| usage("--workload is required")),
        seed: seed.unwrap_or_else(|| usage("--seed is required")),
        seconds: seconds.unwrap_or_else(|| usage("--seconds is required")),
        trace: trace.unwrap_or_else(|| usage("--trace is required")),
        tiny,
        perturb,
        scratch: scratch.unwrap_or_else(|| usage("--scratch is required")),
        reference,
    }
}

/// The recorded reference values of this workload when they apply to
/// this run (q = 1 workloads at the committed seed). A missing file or
/// entry is an error, so the check is never skipped silently.
fn reference_for(opts: &Opts) -> Option<Result<Vec<(String, f64)>, String>> {
    if opts.seed != workload::COMMITTED_SEED || opts.workload == Workload::Inspiral {
        return None;
    }
    let key = format!("{}{}", opts.workload.name(), if opts.tiny { "/tiny" } else { "" });
    let Some(path) = &opts.reference else {
        return Some(Err(format!("no --reference file for {key}")));
    };
    let read = || -> Result<Vec<(String, f64)>, String> {
        let text = std::fs::read_to_string(path).map_err(|e| e.to_string())?;
        let doc = gw_obs::json::parse(&text)?;
        let entry = doc.get(&key).and_then(|v| v.as_obj()).ok_or("no entry")?;
        Ok(entry.iter().filter_map(|(k, v)| Some((k.clone(), v.as_f64()?))).collect())
    };
    Some(read().map_err(|e| format!("reference values for {key} in {}: {e}", path.display())))
}

fn num_obj(pairs: &[(impl AsRef<str>, f64)]) -> Value {
    Value::Obj(pairs.iter().map(|(k, v)| (k.as_ref().to_string(), Value::Num(*v))).collect())
}

fn main() {
    let opts = parse_args();
    std::fs::create_dir_all(&opts.scratch).expect("create the scratch directory");
    let want_reference = reference_for(&opts);

    let mut prep = workload::setup(&opts);
    let mut ev = workload::evolve(&opts, &mut prep);

    // Correctness: every problem found makes every step of the run count
    // as failed.
    let mut problems: Vec<String> = ev.calls.iter().filter_map(|c| c.error.clone()).collect();
    if ev.calls.iter().any(|c| c.error.is_none() && c.failed > 0) {
        problems.push("the supervisor or the comm layer rolled back".to_string());
    }
    if ev.repeat_mismatch {
        problems.push("distributed calls from the same data ended in different states".into());
    }
    let mut reference_values = Vec::new();
    if let (Some((mut last, t_last)), Some((mut first, t_first))) =
        (ev.final_state.clone(), ev.first_state.clone())
    {
        if opts.perturb {
            workload::perturb(&mut last);
            workload::perturb(&mut first);
        }
        problems.extend(workload::check_physical(&last));
        let built;
        let mesh = match &ev.solver {
            Some(s) => &s.mesh,
            None => {
                built = gw_mesh::Mesh::build(prep.domain, &prep.leaves);
                &built
            }
        };
        if let workload::Inputs::Wave(wave) = &prep.inputs {
            let err = workload::wave_error(mesh, &last, wave, t_last);
            reference_values.push(("wave_rel_err".to_string(), err));
            let close = err <= workload::WAVE_RTOL; // NaN fails
            if !close {
                problems.push(format!(
                    "gt_xx - 1 differs from h_plus by {err:.3e} of the amplitude (allowed {})",
                    workload::WAVE_RTOL
                ));
            }
        } else {
            reference_values = workload::reference_values(mesh, &first, t_first);
            match &want_reference {
                Some(Ok(want)) => {
                    problems.extend(workload::check_reference(&reference_values, want))
                }
                Some(Err(e)) => problems.push(e.clone()),
                None => {}
            }
        }
    } else if problems.is_empty() {
        problems.push("no evolution call completed".to_string());
    }

    let untraced: Vec<f64> = ev
        .calls
        .iter()
        .filter(|c| !c.traced && c.error.is_none())
        .map(|c| 1e3 * c.secs / c.steps as f64)
        .collect();
    let traced: Vec<f64> = ev
        .calls
        .iter()
        .filter(|c| c.traced && c.error.is_none())
        .map(|c| 1e3 * c.secs / c.steps as f64)
        .collect();
    let step_ms = if untraced.is_empty() { f64::NAN } else { util::median(&untraced) };
    let point_updates = (prep.octants * gw_stencil::patch::BLOCK_VOLUME * 4) as f64;

    // The layers are timed on the evolved state, so they need one good
    // call of each kind; a run that failed its checks is still measured.
    let (metrics, exact) = if opts.trace && ev.final_state.is_some() && !traced.is_empty() {
        let l = layers::measure(&opts, &prep, &mut ev, (step_ms, util::median(&traced)));
        problems.extend(l.problems);
        (l.metrics, l.exact)
    } else {
        let m = vec![
            ("step_ms", step_ms),
            ("mupdates_per_s", point_updates / (step_ms / 1e3) / 1e6),
            ("setup_s", util::median(&prep.setup_samples)),
            ("peak_rss_mb", ev.peak_rss_mb),
        ];
        (m, vec![("octants", prep.octants as f64)])
    };
    let _ = std::fs::remove_dir_all(&opts.scratch);

    let attempted = ev.attempted();
    let correct = problems.is_empty();
    let failed = if correct { ev.calls.iter().map(|c| c.failed).sum() } else { attempted };
    let result = Value::obj(vec![
        ("workload", Value::Str(opts.workload.name().into())),
        ("seed", Value::Num(opts.seed as f64)),
        ("tiny", Value::Bool(opts.tiny)),
        ("trace", Value::Bool(opts.trace)),
        ("obs_compiled", Value::Bool(gw_obs::Probe::enabled().is_enabled())),
        ("threads", Value::Num(util::nproc() as f64)),
        ("correct", Value::Bool(correct)),
        ("attempted", Value::Num(attempted as f64)),
        ("failed", Value::Num(failed as f64)),
        ("problems", Value::Arr(problems.into_iter().map(Value::Str).collect())),
        ("metrics", num_obj(&metrics)),
        ("exact", num_obj(&exact)),
        ("reference", num_obj(&reference_values)),
        (
            "samples",
            Value::obj(vec![
                ("step_ms", Value::Arr(untraced.into_iter().map(Value::Num).collect())),
                ("traced_step_ms", Value::Arr(traced.into_iter().map(Value::Num).collect())),
                (
                    "setup_s",
                    Value::Arr(prep.setup_samples.iter().copied().map(Value::Num).collect()),
                ),
            ]),
        ),
    ]);
    println!("{result}");
}
