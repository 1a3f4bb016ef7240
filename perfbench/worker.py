"""One pipeline in a fresh process: simulate, analyze the run directory, equilibrium.

Usage (run.py starts it; PHASELAB_OUTPUT_ROOT names the output root):

    python3 perfbench/worker.py SIM_INI EQ_INI T_SPAWN TRACE RESULT_JSON

``T_SPAWN`` is the CLOCK_MONOTONIC reading taken just before this process was
started, so ``setup_s`` and ``pipeline_s`` include interpreter start-up.
"""

import json
import os
import resource
import shutil
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def main(argv) -> int:
    sim_ini, eq_ini, t_spawn, trace, result_path = argv
    t_spawn = float(t_spawn)
    sys.path.insert(0, str(ROOT / "src"))
    import phaselab
    from phaselab import cli, config

    if Path(phaselab.__file__).resolve().parent != ROOT / "src" / "phaselab":
        raise SystemExit(f"phaselab imported from {phaselab.__file__}, not {ROOT / 'src'}")
    tracer = None
    if trace == "1":
        import spans

        tracer = spans.Tracer()
        spans.install(tracer)

    cfg = config.parse_config(sim_ini)
    grid = cfg.build_grid()
    cfg.build_model()
    cfg.build_stepper()
    cfg.build_initial_field(grid)
    out = {"setup_s": _now() - t_spawn, "rc": {}}

    outroot = Path(os.environ[cli.ENV_OUTPUT_ROOT])
    run_dir = outroot / "run"
    commands = (
        ("simulate", ["simulate", sim_ini]),
        ("analyze", ["analyze", str(run_dir)]),
        ("equilibrium", ["equilibrium", eq_ini]),
    )
    for name, args in commands:
        t = _now()
        try:
            rc = cli.main(args)
        except Exception:  # reported as a failed operation, not a crash
            traceback.print_exc()
            rc = -1
        out[f"{name}_s"] = _now() - t
        out["rc"][name] = rc
        if name == "simulate" and (run_dir / "manifest.json").exists():
            # analyze rewrites the run directory's manifest; keep simulate's
            shutil.copyfile(run_dir / "manifest.json", outroot / "simulate_manifest.json")
    out["pipeline_s"] = _now() - t_spawn
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        tracer.write(outroot / "spans.jsonl")
    Path(result_path).write_text(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
