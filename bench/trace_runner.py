"""Run one upb CLI invocation with span recording at the module boundaries.

    python3 bench/trace_runner.py SPANS_OUT INVOCATION_ID -- ARGV...

The runner imports upb, rebinds the public names that cross module
boundaries with span-recording wrappers, calls upb.cli.main(ARGV) and, at
exit, writes every span as JSON to SPANS_OUT. A span is
[id, name, start, end, parent, info] with times in seconds from
time.perf_counter(); info holds what the call reveals about its size
(strategy and samples of a mass estimate, trials of a search, ...).
A rebound name that the package no longer has is listed under "missing".
"""

import importlib
import json
import sys
import time

# (module, attribute, span name). A name imported into a module is rebound
# there, so the span records calls made through that module.
REBOUND = (
    ("upb.cli", "solve_r0", "cli.solve_r0"),
    ("upb.cli", "ball_mass", "cli.ball_mass"),
    ("upb.bounds", "ball_mass", "bounds.ball_mass"),
    ("upb.cli", "random_search", "cli.random_search"),
    ("upb.cli", "diversity_summary", "cli.diversity_summary"),
    ("upb.cli", "load_constellation", "cli.load_constellation"),
    ("upb.constellation", "stacked_logabsdet", "constellation.stacked_logabsdet"),
)


def _info(name, args, kwargs, result):
    """Size of the work a call did, read defensively from its inputs and result."""
    try:
        if name.endswith("ball_mass"):
            return {"strategy": result.strategy, "samples": int(result.samples), "n": int(args[0])}
        if name.endswith("solve_r0"):
            diag = result[1]
            return {"evaluations": int(diag.evaluations), "restarts": int(diag.restarts)}
        if name.endswith("random_search"):
            trials = kwargs.get("trials", args[2] if len(args) > 2 else None)
            objective = kwargs.get("objective", args[4] if len(args) > 4 else "sum")
            return {"trials": int(trials), "objective": objective}
        if name.endswith("stacked_logabsdet"):
            shape = getattr(args[0], "shape", ())
            count = 1
            for dim in shape[:-2]:
                count *= int(dim)
            return {"matrices": count}
    except (AttributeError, IndexError, KeyError, TypeError, ValueError):
        return {}
    return {}


class Recorder:
    def __init__(self):
        self.spans = []
        self.stack = []

    def wrap(self, fn, name):
        def wrapper(*args, **kwargs):
            span_id = len(self.spans)
            parent = self.stack[-1] if self.stack else None
            span = [span_id, name, time.perf_counter(), None, parent, {}]
            self.spans.append(span)
            self.stack.append(span_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = time.perf_counter()
                self.stack.pop()
            span[5] = _info(name, args, kwargs, result)
            return result

        return wrapper


def main(argv):
    out_path, invocation, sep, cli_argv = argv[0], argv[1], argv[2], argv[3:]
    if sep != "--":
        raise SystemExit("usage: trace_runner.py SPANS_OUT INVOCATION_ID -- ARGV...")
    rec = Recorder()
    t0 = time.perf_counter()
    import upb.cli

    rec.spans.append([0, "setup.import_upb", t0, time.perf_counter(), None, {}])
    missing = []
    for module_name, attr, span_name in REBOUND:
        module = importlib.import_module(module_name)
        if not hasattr(module, attr):
            missing.append(span_name)
            continue
        setattr(module, attr, rec.wrap(getattr(module, attr), span_name))
    main_id = len(rec.spans)
    rec.spans.append([main_id, "cli.main", time.perf_counter(), None, None, {}])
    rec.stack.append(main_id)
    code = 1
    try:
        code = upb.cli.main(cli_argv)
    finally:
        rec.spans[main_id][3] = time.perf_counter()
        with open(out_path, "w") as fh:
            json.dump({"invocation": invocation, "missing": missing, "spans": rec.spans}, fh)
    return code


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
