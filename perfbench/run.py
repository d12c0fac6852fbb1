"""Layered benchmark of the etopo pipeline.

Run from the repository root:

    python3 perfbench/run.py --workload lattice_routing --seed 7 --seconds 15 --trace 0

One single-threaded closed-loop caller drives the library in-process: it
sends the next operation only when the previous one has returned. With
--trace 0 the run reports the end-to-end metrics; with --trace 1 it
reports per-layer metrics from spans instead (see README.md). Human-
readable lines come first; the last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics.

A run has four phases. Set-up is repeated (untraced runs) and its median
is setup_s. The reference pass runs a fixed number of operations outside
the timed region; its outputs are checked, digested, and kept to compare
the timed operations against. The timed loop runs operations in batches
until --seconds of batch time have passed, checking each batch after its
clock stops. Finally, metrics are computed and the work directory removed.

In an untraced run every set-up and every batch sits between two host-speed
calibrations (calibrate.py), and the timing metrics are scaled to the
host's reference speed; the unscaled values are printed beside them.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import resource
import shutil
import statistics
import sys
from pathlib import Path
from time import perf_counter

from calibrate import REFERENCE_UNIT_S, Calibrator

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 3
CALIBRATION_SHARE = 0.25  # calibration time after a batch, as a share of the batch


def import_package() -> None:
    """Put the checkout's src/ first on the path; fail unless etopo comes from it."""
    src = ROOT / "src"
    if not (src / "etopo" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no etopo package under {src}")
    sys.path.insert(0, str(src))
    import etopo

    if Path(etopo.__file__).resolve().parent != (src / "etopo").resolve():
        raise SystemExit(f"perfbench: etopo imported from {etopo.__file__}, not {src}")


def short_digest(data) -> int:
    """A 52-bit prefix of a digest: exact as a JSON number, compared as a count."""
    return int(data.hexdigest()[:13], 16)


def timed(run, api, inp):
    start = perf_counter()
    try:
        out = run(api, inp)
    except Exception as exc:  # a failed operation; check() reports it
        out = exc
    return perf_counter() - start, out


class Run:
    """One benchmark run of one workload."""

    def __init__(self, workload_cls, seed: int, seconds: float, trace: bool) -> None:
        self.workload_cls = workload_cls
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.workdir = ROOT / ".perfbench_work" / f"{workload_cls.name}-{seed}-{os.getpid()}"
        self.problems: list[str] = []

    def note(self, problems: list[str]) -> None:
        """Record problems; the first five go to standard error."""
        for problem in problems:
            if len(self.problems) < 5:
                print(f"perfbench: {problem}", file=sys.stderr)
            self.problems.append(problem)

    # -- phases ---------------------------------------------------------------

    def set_up(self, api, tracer=None, cal=None):
        """The workload, set up; its set-up times, and with `cal` the same
        times scaled by the calibrations taken just before and after."""
        times, scaled = [], []
        repeats = 1 if tracer is not None else SETUP_REPEATS
        for i in range(repeats):
            workload = self.workload_cls(self.seed, self.workdir)
            gc.collect()
            before = cal.measure(0.3) if cal is not None else None
            if tracer is not None:
                tracer.install()
            start = perf_counter()
            try:
                workload.setup(api)
            finally:
                times.append(perf_counter() - start)
                if tracer is not None:
                    tracer.uninstall()
            if cal is not None:
                scaled.append(times[-1] * 2 * REFERENCE_UNIT_S / (before + cal.measure(0.3)))
            if i + 1 < repeats:
                workload.close()
                del workload
        return workload, times, scaled

    def reference(self, workload, api, tracer=None):
        """Outputs of the first ref_ops operations, checked and digested."""
        digest = hashlib.sha256()
        expected: dict = {}
        results = []
        inputs = workload.inputs()
        for i in range(workload.ref_ops):
            key, inp = next(inputs)
            if tracer is not None:
                tracer.op = i
                tracer.install()
            try:
                _, out = timed(workload.run, api, inp)
            finally:
                if tracer is not None:
                    tracer.uninstall()
            problems = workload.check(inp, out)
            self.note(problems)
            if problems:
                continue
            data = workload.output_bytes(out)
            digest.update(data)
            expected[key] = hashlib.sha256(data).digest()
            results.append((inp, out))
        self.note(workload.reference_checks(results))
        return short_digest(digest), expected

    def loop(self, workload, api, expected, traced_api=None, tracer=None, cal=None):
        """The timed closed loop. For a workload with a `cycle` it ends on a
        whole number of cycles, so that every run times the same mix. In a
        traced run each operation runs twice, untraced and traced, in
        alternating order; the two sets of times give trace.overhead_ratio.

        With `cal`, the loop starts with a calibration and follows each
        batch with one lasting CALIBRATION_SHARE of the batch. The batch's
        times are also recorded scaled by REFERENCE_UNIT_S over the mean
        unit time of the calibrations just before and just after it."""
        plain_times: list[float] = []
        traced_times: list[float] = []
        scaled_times: list[float] = []
        failed = attempted = written = 0
        busy = scaled_busy = 0.0
        unit_before = cal.measure(0.1) if cal is not None else None
        traced_run = tracer.wrap("op", workload.run) if tracer is not None else None
        inputs = workload.inputs()
        cycle, issued = workload.cycle, 0
        while busy < self.seconds or (cycle and issued % cycle):
            size = min(workload.batch, cycle - issued % cycle) if cycle else workload.batch
            batch = [next(inputs) for _ in range(size)]
            issued += size
            outs = []
            start = perf_counter()
            for key, inp in batch:
                if tracer is None:
                    dt, out = timed(workload.run, api, inp)
                    plain_times.append(dt)
                    outs.append((key, inp, out))
                    continue
                for traced in ((False, True) if len(plain_times) % 2 else (True, False)):
                    if traced:
                        tracer.op = len(traced_times)
                        tracer.install()
                        dt, out = timed(traced_run, traced_api, inp)
                        tracer.uninstall()
                        traced_times.append(dt)
                    else:
                        dt, out = timed(workload.run, api, inp)
                        plain_times.append(dt)
                    outs.append((key, inp, out))
            batch_time = perf_counter() - start
            busy += batch_time
            if cal is not None:
                unit_after = cal.measure(CALIBRATION_SHARE * batch_time)
                speed = 2 * REFERENCE_UNIT_S / (unit_before + unit_after)
                unit_before = unit_after
                scaled_times.extend(dt * speed for dt in plain_times[-len(batch):])
                scaled_busy += batch_time * speed
            for key, inp, out in outs:
                attempted += 1
                problems = workload.check(inp, out)
                if not problems:
                    written += workload.bytes_written(out)
                    if (key in expected and hashlib.sha256(workload.output_bytes(out)).digest()
                            != expected[key]):
                        problems = [f"operation {key}: output differs from the reference pass"]
                if problems:
                    failed += 1
                    self.note(problems)
        return {"busy": busy, "plain": plain_times, "traced": traced_times,
                "scaled_busy": scaled_busy, "scaled": scaled_times,
                "attempted": attempted, "failed": failed, "written": written}

    # -- the two kinds of run ---------------------------------------------------

    def untraced(self, plain):
        cal = Calibrator()
        workload, raw_setup, setup_times = self.set_up(plain, cal=cal)
        digest, expected = self.reference(workload, plain)
        loop = self.loop(workload, plain, expected, cal=cal)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        workload.close()
        raw, times, scaled_busy = loop["plain"], loop["scaled"], loop["scaled_busy"]
        n = len(times)

        def percentile(times, p):
            return statistics.quantiles(times, n=100, method="inclusive")[p - 1]

        metrics = {
            "setup_s": (statistics.median(setup_times), "s",
                        "median of set-ups " + " ".join(f"{t:.4f}" for t in setup_times),
                        f"(unscaled {' '.join(f'{t:.4f}' for t in raw_setup)})"),
            "throughput_ops_s": (n / scaled_busy, "1/s",
                                 f"n={n} in {loop['busy']:.2f} s "
                                 f"(unscaled {n / loop['busy']:.3f})"),
            "latency_p50_ms": (1e3 * statistics.median(times), "ms",
                               f"n={n} (unscaled {1e3 * statistics.median(raw):.4f})"),
            "latency_p90_ms": (1e3 * percentile(times, 90), "ms",
                               f"n={n} (unscaled {1e3 * percentile(raw, 90):.4f}; "
                               f"p99 {1e3 * percentile(times, 99):.4f}, "
                               f"unscaled {1e3 * percentile(raw, 99):.4f})"),
            "peak_rss_mb": (peak_rss_mb, "MB", "whole run"),
        }
        return metrics, loop, [f"outputs digest {digest} over {workload.ref_ops} "
                               "reference operations",
                               f"host speed: timed batch time {loop['busy']:.2f} s scales to "
                               f"{scaled_busy:.2f} s at the reference speed"]

    def traced(self, plain):
        from spans import SpanStats, Tracer
        from workloads import traced_api

        setup_tracer, ref_tracer, loop_tracer = Tracer(), Tracer(), Tracer()
        workload, _, _ = self.set_up(traced_api(setup_tracer), setup_tracer)
        digest, expected = self.reference(workload, traced_api(ref_tracer), ref_tracer)
        loop = self.loop(workload, plain, expected, traced_api(loop_tracer), loop_tracer)
        workload.close()
        loop_tracer.write(str(ROOT / ".perfbench_work" / f"spans-{workload.name}.jsonl"))
        metrics = layer_metrics(
            SpanStats(setup_tracer), SpanStats(ref_tracer), SpanStats(loop_tracer),
            len(loop["traced"]),
        )
        metrics["trace.overhead_ratio"] = (sum(loop["traced"]) / sum(loop["plain"]), "ratio")
        metrics["io.bytes_written_per_op"] = (loop["written"] / loop["attempted"], "bytes")
        metrics["check.outputs_digest"] = (digest, "count")
        return metrics, loop, [f"{len(loop['traced'])} traced operations, each paired "
                               "with an untraced one"]

    def execute(self) -> int:
        from workloads import PLAIN

        self.workdir.mkdir(parents=True, exist_ok=True)
        try:
            metrics, loop, report = self.traced(PLAIN) if self.trace else self.untraced(PLAIN)
        finally:
            shutil.rmtree(self.workdir, ignore_errors=True)
        attempted, failed = loop["attempted"], loop["failed"]
        correct = not self.problems
        print(f"perfbench {self.workload_cls.name} seed={self.seed} trace={int(self.trace)} "
              f"measured {loop['busy']:.2f} s")
        print(f"operations attempted {attempted}, failed {failed}, "
              f"problems found {len(self.problems)}")
        print(f"  {'error_rate':<44} {failed / attempted:>18.6f} {'ratio':<9} "
              f"failed/attempted, n={attempted}")
        for line in report:
            print(line)
        for name, (value, unit, *samples) in metrics.items():
            print(f"  {name:<44} {value:>18.6f} {unit:<9} {' '.join(samples)}")
        print(json.dumps({
            "correct": correct,
            "attempted": attempted,
            "failed": failed,
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit, *_) in metrics.items()},
        }))
        return 0 if correct else 1


def layer_metrics(setup, ref, loop, ops: int) -> dict:
    """Per-layer metrics from the spans of the three phases of a traced run.

    `_ms` and `_us` times are per traced operation of the timed loop, except
    where the name says set-up; steps_total comes from the reference pass,
    whose operations are the same on every run of a seed.
    """

    def per_op_ms(name, self_only=False):
        table = loop.self_time if self_only else loop.total
        return 1e3 * table.get(name, 0.0) / ops

    def ratio(part, whole):
        return part / whole if whole else 0.0

    def notes(stats, name):
        return [n for n in stats.notes.get(name, []) if n is not None and n[0] != "raised"]

    routes = notes(loop, "route")
    found = [n for n in routes if n[0]]
    steps = sorted(n[1] for n in found)
    adapts = notes(setup, "adapt") + notes(loop, "adapt")
    results = notes(loop, "solve_exact") + notes(loop, "solve_greedy")
    greedy = notes(loop, "solve_greedy")
    exact_calls = loop.calls.get("solve_exact", 0)
    too_large = loop.notes.get("solve_exact", []).count(("raised", "TooLargeError"))
    served = sum(n[1] for n in results)
    return {
        "generate.kleinberg_lattice_s": (setup.total.get("kleinberg_lattice", 0.0), "s"),
        "adaption.adapt_setup_ms": (1e3 * setup.total.get("adapt", 0.0), "ms"),
        "generate.generate_network_ms": (per_op_ms("generate_network"), "ms"),
        "overlay.apply_failures_ms": (per_op_ms("apply_failures"), "ms"),
        "basegraph.map_overlay_self_ms": (per_op_ms("map_overlay", True), "ms"),
        "adaption.adapt_self_ms": (per_op_ms("adapt", True), "ms"),
        "adaption.kept_ratio": (ratio(sum(n[0] for n in adapts), sum(n[1] for n in adapts)),
                                "ratio"),
        "routing.route_calls": (ratio(loop.calls.get("route", 0), ops), "calls/op"),
        "routing.route_self_us": (1e6 * ratio(loop.self_time.get("route", 0.0),
                                              loop.calls.get("route", 0)), "us"),
        "routing.steps_mean": (statistics.fmean(steps) if steps else 0.0, "steps"),
        "routing.steps_p99": (
            statistics.quantiles(steps, n=100, method="inclusive")[98] if len(steps) > 1
            else 0.0, "steps"),
        "routing.backtracks_mean": (
            statistics.fmean((n[1] - n[2]) / 2 for n in found) if found else 0.0, "steps"),
        "routing.found_ratio": (ratio(len(found), len(routes)), "ratio"),
        "routing.steps_total": (sum(n[1] for n in notes(ref, "route")), "count"),
        "routing.share_of_op": (ratio(loop.self_time.get("route", 0.0),
                                      loop.total.get("op", 0.0)), "ratio"),
        "assignment.solve_exact_self_ms": (per_op_ms("solve_exact", True), "ms"),
        "assignment.enumerate_simple_paths_self_ms": (
            per_op_ms("enumerate_simple_paths", True), "ms"),
        "assignment.too_large_ratio": (ratio(too_large, exact_calls), "ratio"),
        "assignment.feasible_ratio": (ratio(sum(1 for n in results if n[0]), len(results)),
                                      "ratio"),
        "assignment.solve_greedy_self_ms": (per_op_ms("solve_greedy", True), "ms"),
        "assignment.greedy_reroutes_per_op": (
            ratio(loop.under("route", "solve_greedy") - sum(n[3] for n in greedy), ops),
            "routes/op"),
        "assignment.served_ratio": (ratio(served, served + sum(n[2] for n in results)),
                                    "ratio"),
        "scenario.scenario_from_dict_ms": (per_op_ms("scenario_from_dict"), "ms"),
        "scenario.build_trial_instance_self_ms": (per_op_ms("build_trial_instance", True),
                                                  "ms"),
        "scenario.run_scenario_self_ms": (per_op_ms("run_scenario", True), "ms"),
        "scenario.export_ms": (per_op_ms("export"), "ms"),
        "io.load_instance_self_ms": (per_op_ms("load_instance", True), "ms"),
        "io.save_solve_result_ms": (per_op_ms("save_solve_result"), "ms"),
        "trace.traced_ops": (ops, "count"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("lattice_routing", "scenario_greedy", "assign_exact"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    import_package()
    from workloads import WORKLOADS

    return Run(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace)).execute()


if __name__ == "__main__":
    sys.exit(main())
