"""The hvalgebra benchmark: run one workload of `hval` commands and report.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --compare BASE.jsonl [NEW.jsonl]

Run it from anywhere; it works in the checkout that holds this file and
builds nothing (the package is pure Python, imported from `src`).

One client drives the public CLI as a closed loop: it starts one command,
waits for it to finish, then starts the next, each in a fresh interpreter
as users run it.  Per command it takes wall time, CPU and peak RSS from
`os.wait4`, which reports on exactly that child (see launch.py).  A run
first times `hval --version` several times (setup), then repeats the
workload's command list until `--seconds` is used up, and reports
per-command medians.  Every output is checked; see workloads.py.

With `--trace 1` it instead makes three passes over the command list:
untraced (the overhead baseline), traced with spans around each layer's
entry points, and profiled for call counts (see tracer.py).  All three
must print byte-identical stdout.

The last line of stdout is one JSON object: correct, attempted, failed
and metrics (end-to-end metrics untraced, per-layer metrics traced).
`--record FILE` appends the run's full record (environment, per-command
samples and stdout digests) to FILE as one JSON line; `--compare` reads
such files back.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import workloads  # noqa: E402

SPEC = json.loads((BENCH / "spec.json").read_text(encoding="utf-8"))
SETUP_SAMPLES = 5
COMMAND_TIMEOUT_S = 60.0


class Preflight(Exception):
    """The checkout cannot run the benchmark at all."""


# -- running one command ------------------------------------------------------


class Sample:
    """One finished child: exit code, stdout, wall, CPU and peak RSS."""

    def __init__(self, label, code, stdout, stderr, wall_s, cpu_s, rss_mb):
        self.label = label
        self.code = code
        self.stdout = stdout
        self.stderr = stderr
        self.wall_s = wall_s
        self.cpu_s = cpu_s
        self.rss_mb = rss_mb
        self.digest = hashlib.sha256(stdout).hexdigest()
        self.failure = None


class Runner:
    """Starts commands in the checkout root with the package's `src` on the
    import path, one at a time, each through launch.py, and reaps each
    before returning."""

    def __init__(self, workdir: Path):
        self.workdir = workdir
        # Children run with Python's defaults whatever the caller's PYTHON*
        # settings (bytecode caching, buffering, ...), except for fixed
        # string hashing, so that set and dict layouts, and with them the
        # exact work done, repeat from run to run.
        self.env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
        self.env["PYTHONPATH"] = str(ROOT / "src")
        self.env["PYTHONHASHSEED"] = "0"

    def run(self, label, argv) -> Sample:
        """Run argv through launch.py and collect what it measured."""
        out_path = self.workdir / "stdout.txt"
        err_path = self.workdir / "stderr.txt"
        usage_path = self.workdir / "usage.txt"
        usage_path.unlink(missing_ok=True)
        launcher = [sys.executable, "-S", str(BENCH / "launch.py"), str(usage_path)]
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            # A session of its own, so a timeout can kill the command too.
            proc = subprocess.Popen(launcher + list(argv), cwd=ROOT, env=self.env,
                                    stdin=subprocess.DEVNULL, stdout=out, stderr=err,
                                    start_new_session=True)
            try:
                proc.wait(timeout=COMMAND_TIMEOUT_S)
            except BaseException:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.wait()
                raise
        fields = usage_path.read_text().split() if usage_path.is_file() else []
        if proc.returncode != 0 or len(fields) != 4:
            raise RuntimeError(f"launcher failed for {label}: exit {proc.returncode}")
        code, wall, cpu, rss_kib = int(fields[0]), float(fields[1]), float(fields[2]), int(fields[3])
        return Sample(label, code, out_path.read_bytes(), err_path.read_bytes(),
                      wall, cpu, rss_kib / 1024.0)

    def hval(self, command) -> Sample:
        sample = self.run(command.label, [sys.executable, "-m", "hvalgebra", *command.argv])
        judge(sample, command)
        return sample

    def traced(self, command, out: Path, profile: bool) -> Sample:
        argv = [sys.executable, str(BENCH / "tracer.py"), "--out", str(out),
                "--command", command.label]
        if profile:
            argv.append("--profile")
        sample = self.run(command.label, argv + ["--", *command.argv])
        judge(sample, command)
        return sample


def judge(sample: Sample, command) -> None:
    try:
        text = sample.stdout.decode("utf-8")
    except UnicodeDecodeError:
        sample.failure = "stdout is not UTF-8"
        return
    reason = command.check(sample.code, text)
    if reason is None and sample.code not in (0, 1):
        reason = f"exit code {sample.code}"
    if reason is not None:
        tail = sample.stderr.decode("utf-8", "replace").strip().splitlines()[-1:]
        sample.failure = reason + (f" ({tail[0]})" if tail else "")


def preflight(runner: Runner) -> None:
    """Refuse to run unless `src/hvalgebra` of this checkout is what imports."""
    init = ROOT / "src" / "hvalgebra" / "__init__.py"
    if not init.is_file():
        raise Preflight(f"no package source at {init.relative_to(ROOT)}")
    probe = runner.run("probe", [sys.executable, "-c",
                                 "import hvalgebra; print(hvalgebra.__file__)"])
    where = probe.stdout.decode("utf-8", "replace").strip()
    if probe.code != 0 or Path(where).resolve() != init.resolve():
        raise Preflight(f"hvalgebra imports from {where or 'nowhere'}, not from this checkout")


# -- statistics ---------------------------------------------------------------------


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(n=4) gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def end_to_end(setups, passes):
    """End-to-end metrics from the setup samples and the command passes:
    per-command medians over passes, summed (times) or maximised (RSS)."""
    by_label = defaultdict(list)
    for pass_ in passes:
        for sample in pass_:
            by_label[sample.label].append(sample)
    med = statistics.median
    return {
        "wall_s": sum(med([s.wall_s for s in ss]) for ss in by_label.values()),
        "cpu_s": sum(med([s.cpu_s for s in ss]) for ss in by_label.values()),
        "peak_rss_mb": max(med([s.rss_mb for s in ss]) for ss in by_label.values()),
        "setup_s": med([s.wall_s for s in setups]),
    }


def per_layer(traces, counts, traced_wall, untraced_wall):
    """Per-layer metrics from the span records and the profile counts of
    every command in the workload."""
    times = defaultdict(float)
    attrs = defaultdict(float)
    assembly = defaultdict(float)
    for trace in traces:
        spans = trace["spans"]
        times["cli.import_s"] += trace["import_s"]
        times["cli.main_s"] += trace["main_s"]
        linalg_in = defaultdict(float)
        for name, start, end, parent, _, span_attrs in spans:
            times[name + "_s"] += end - start
            for key, value in span_attrs.items():
                attrs[f"{name.split('.')[0]}.{key}"] += value
            if parent is not None and name.startswith("linalg."):
                linalg_in[parent] += end - start
        for index, (name, start, end, *_) in enumerate(spans):
            if name in ("bimaps.solve", "commuting.solve"):
                assembly[name.split(".")[0]] += end - start - linalg_in[index]
    run_ordered_s = times["parallel.run_ordered_s"]
    check_s = times["linmaps.collect_report_s"]
    values = {
        **counts,
        "bimaps.solve_s": times["bimaps.solve_s"],
        "bimaps.assembly_s": assembly["bimaps"],
        "commuting.solve_s": times["commuting.solve_s"],
        "commuting.assembly_s": assembly["commuting"],
        "linalg.nullspace_s": times["linalg.nullspace_s"],
        "linalg.rref_s": times["linalg.rref_s"],
        "linalg.solve_affine_s": times["linalg.solve_affine_s"],
        "linalg.rows_in": attrs["linalg.rows_in"],
        "linalg.cols": attrs["linalg.cols"],
        "linalg.nnz_in": attrs["linalg.nnz_in"],
        "linalg.rank": attrs["linalg.rank"],
        "linalg.nullity": attrs["linalg.nullity"],
        "bimaps.check_s": times["bimaps.check_s"],
        "linmaps.check_s": times["linmaps.check_s"],
        "commuting.check_s": times["commuting.check_s"],
        "postlie.check_s": times["postlie.check_s"],
        "leftsym.check_s": times["leftsym.check_s"],
        "leftsym.strata_s": times["leftsym.strata_s"],
        "linmaps.decompose_s": times["linmaps.decompose_s"],
        "linmaps.instances": attrs["linmaps.instances"],
        "linmaps.skipped": attrs["linmaps.skipped"],
        "linmaps.counterexamples": attrs["linmaps.counterexamples"],
        "linmaps.instances_per_s": attrs["linmaps.instances"] / check_s if check_s else 0.0,
        "parallel.run_ordered_s": run_ordered_s,
        "parallel.items": attrs["parallel.items"],
        "parallel.cpu_per_wall": attrs["parallel.cpu_s"] / run_ordered_s if run_ordered_s else 0.0,
        "render.render_s": times["render.render_s"],
        "render.bytes_out": attrs["render.bytes_out"],
        "cli.import_s": times["cli.import_s"],
        "cli.main_s": times["cli.main_s"],
        "parsing.parse_s": times["parsing.parse_s"],
        "trace.overhead_frac": traced_wall / untraced_wall - 1.0,
    }
    return values


def with_units(values, metrics):
    """Metric values in spec order with their units; counts stay integers."""
    out = {}
    for metric in metrics:
        value = values[metric["name"]]
        if metric["unit"] in ("count", "bytes"):
            value = int(round(value))
        out[metric["name"]] = {"value": value, "unit": metric["unit"]}
    return out


# -- one benchmark run ----------------------------------------------------------------


def git_sha() -> str:
    """The checkout's commit, read from .git without leaving the checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_workload(opts) -> dict:
    workdir_rel = f"perfbench/.work/{opts.workload}-{opts.seed}"
    workdir = ROOT / workdir_rel
    work = workloads.build(opts.workload, opts.seed, workdir_rel, smoke=opts.smoke)
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        for rel, text in work.files.items():
            (ROOT / rel).write_text(text, encoding="utf-8")
        runner = Runner(workdir)
        preflight(runner)
        record = {
            "workload": opts.workload,
            "seed": opts.seed,
            "seconds": opts.seconds,
            "trace": opts.trace,
            "smoke": opts.smoke,
            "python": platform.python_version(),
            "nproc": os.cpu_count(),
            "git_sha": git_sha(),
            "loadavg_before": os.getloadavg(),
        }
        runner.hval(workloads.VERSION)  # compiles bytecode; not measured
        if opts.trace:
            samples, result = traced_run(runner, work, workdir)
        else:
            samples, result = untraced_run(runner, work, opts.seconds)
        record["loadavg_after"] = os.getloadavg()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass

    # The same command must print the same bytes every time it runs.
    digests = defaultdict(set)
    for sample in samples:
        if sample.label != "version":
            digests[sample.label].add(sample.digest)
    for sample in samples:
        if sample.failure is None and len(digests.get(sample.label, ())) > 1:
            sample.failure = "stdout differs between executions of the same command"
    failures = [f"{s.label}: {s.failure}" for s in samples if s.failure]
    result = {
        "correct": not failures,
        "attempted": len(samples),
        "failed": len(failures),
        "metrics": result,
    }
    argv_of = {c.label: c.argv for c in work.commands}
    commands = []
    for label, argv in argv_of.items():
        mine = [s for s in samples if s.label == label]
        commands.append({
            "label": label,
            "argv": list(argv),
            "sha256": sorted(digests[label]),
            "exit": sorted({s.code for s in mine}),
            "wall_s": [s.wall_s for s in mine],
            "cpu_s": [s.cpu_s for s in mine],
            "rss_mb": [s.rss_mb for s in mine],
        })
    record.update(
        result=result,
        fail_frac=len(failures) / len(samples),
        failures=failures,
        commands=commands,
        setup_s=[s.wall_s for s in samples if s.label == "version"],
    )
    return record


def untraced_run(runner, work, seconds):
    started = time.perf_counter()
    # Setup samples are spread over the run, so that a burst of load on the
    # machine cannot hit all of them.
    setups = [runner.hval(workloads.VERSION) for _ in range(SETUP_SAMPLES)]
    passes = []
    while True:
        pass_started = time.perf_counter()
        setups.append(runner.hval(workloads.VERSION))
        passes.append([runner.hval(c) for c in work.commands])
        now = time.perf_counter()
        if now + (now - pass_started) > started + seconds:
            break
    values = end_to_end(setups, passes)
    samples = setups + [s for p in passes for s in p]
    return samples, with_units(values, SPEC["end_to_end"])


def traced_run(runner, work, workdir):
    plain = [runner.hval(c) for c in work.commands]
    traced, traces = [], []
    for i, command in enumerate(work.commands):
        out = workdir / f"spans-{i}.json"
        traced.append(runner.traced(command, out, profile=False))
        traces.append(json.loads(out.read_text()) if out.is_file() else None)
    profiled, counts = [], defaultdict(int)
    for i, command in enumerate(work.commands):
        out = workdir / f"counts-{i}.json"
        profiled.append(runner.traced(command, out, profile=True))
        if out.is_file():
            for key, value in json.loads(out.read_text())["counts"].items():
                counts[key] += value
    samples = plain + traced + profiled
    if any(t is None for t in traces) or not counts:
        for sample in traced + profiled:
            sample.failure = sample.failure or "no trace record written"
        values = dict.fromkeys((m["name"] for m in SPEC["per_layer"]), 0)
    else:
        values = per_layer(
            traces,
            counts,
            sum(s.wall_s for s in traced),
            sum(s.wall_s for s in plain),
        )
    return samples, with_units(values, SPEC["per_layer"])


# -- comparing result sets ---------------------------------------------------------------


def load_records(path):
    with open(path, encoding="utf-8") as handle:
        return [json.loads(line) for line in handle if line.strip()]


def _spread(q1, med, q3):
    return (q3 - q1) / med if med else 0.0


def compare(paths) -> int:
    """Print medians, quartiles and verdicts for each workload and metric."""
    sets = [load_records(p) for p in paths]
    metrics = SPEC["end_to_end"]
    names = [w["name"] for w in SPEC["workloads"]]
    regressed = False
    for workload in names:
        runs = [[r for r in s if r["workload"] == workload and not r["trace"]] for s in sets]
        if not all(runs):
            continue
        print(f"== {workload}  (runs: {', '.join(str(len(r)) for r in runs)}; "
              f"failed commands: {', '.join(str(sum(x['result']['failed'] for x in r)) for r in runs)})")
        for metric in metrics:
            name, bound = metric["name"], metric["bound"]
            cells, stats_ = [], []
            for r in runs:
                q1, med, q3 = quartiles([x["result"]["metrics"][name]["value"] for x in r])
                stats_.append((q1, med, q3))
                cells.append(f"{med:10.4f} [{q1:.4f}, {q3:.4f}] spread {_spread(q1, med, q3):6.1%}")
            line = f"  {name:12} {metric['unit']:>3}  " + "  |  ".join(cells)
            if len(stats_) == 2:
                base, new = stats_[0][1], stats_[1][1]
                change = (new - base) / base if base else 0.0
                worse = change if metric["better"] == "lower" else -change
                spread = max(_spread(*stats_[0]), _spread(*stats_[1]))
                if worse > bound:
                    verdict = "REGRESSED"
                    regressed = True
                elif spread > bound:
                    verdict = "unresolved (spread above bound)"
                elif -worse > bound:
                    verdict = "better beyond bound"
                else:
                    verdict = "within bound"
                line += f"  change {change:+6.1%} (bound {bound:.0%}): {verdict}"
            print(line)
        labels = [c["label"] for c in runs[0][0]["commands"]]
        for label in labels:
            cells = []
            for r in runs:
                walls = [statistics.median(c["wall_s"]) for x in r for c in x["commands"]
                         if c["label"] == label]
                q1, med, q3 = quartiles(walls)
                cells.append(f"{med:8.3f} s [{q1:.3f}, {q3:.3f}]")
            print(f"    {label:26} " + "  |  ".join(cells))
    return 1 if regressed else 0


# -- entry point ------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Run one hvalgebra benchmark workload, or compare recorded runs.")
    parser.add_argument("--workload", choices=[w["name"] for w in SPEC["workloads"]])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny windows, for the benchmark's own tests")
    parser.add_argument("--record", metavar="FILE",
                        help="append this run's full record to FILE (JSON lines)")
    parser.add_argument("--compare", nargs="+", metavar="FILE",
                        help="summarise one recorded result set, or compare two")
    opts = parser.parse_args(argv)
    if opts.compare:
        if len(opts.compare) > 2:
            parser.error("--compare takes one or two files")
        return compare(opts.compare)
    if opts.workload is None:
        parser.error("--workload is required")
    if not 1 <= opts.seconds <= 600:
        parser.error("--seconds must be between 1 and 600")

    try:
        record = run_workload(opts)
    except Preflight as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 2
    report(record)
    if opts.record:
        with open(opts.record, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(record) + "\n")
    print(json.dumps(record["result"]))
    return 0


def report(record) -> None:
    """Human-readable summary on stderr."""
    err = sys.stderr
    print(f"perfbench {record['workload']} seed={record['seed']} trace={record['trace']} "
          f"python={record['python']} nproc={record['nproc']} sha={record['git_sha'][:12]} "
          f"load {record['loadavg_before'][0]:.2f} -> {record['loadavg_after'][0]:.2f}", file=err)
    for command in record["commands"]:
        walls = command["wall_s"]
        print(f"  {command['label']:26} n={len(walls):2} median {statistics.median(walls):7.3f} s"
              f"  cpu {statistics.median(command['cpu_s']):7.3f} s"
              f"  rss {max(command['rss_mb']):6.1f} MB  sha256 {command['sha256'][0][:12]}",
              file=err)
    for name, metric in record["result"]["metrics"].items():
        print(f"  {name:28} {metric['value']:.6g} {metric['unit']}", file=err)
    for failure in record["failures"]:
        print(f"  FAILED {failure}", file=err)


if __name__ == "__main__":
    raise SystemExit(main())
