#!/usr/bin/env python3
"""The repository benchmark: three workloads, six end-to-end metrics, and
a per-crate layer breakdown (see perfbench/README.md).

Run from the root of a checkout:

    python3 perfbench/run.py --workload repro-full --seed 42 --seconds 20 --trace 0

It builds the `transit-experiments` CLI and the in-process harness
(perfbench/harness) into $CARGO_TARGET_DIR (default .bench_build), runs
the workload, checks its outputs, and prints one JSON line of run
context followed by the result line:

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

`--trace 0` reports the end-to-end metrics of untraced passes;
`--trace 1` runs traced passes beside untraced ones and reports the
per-layer metrics. `--size tiny` shrinks every workload for the
self-test (perfbench/test_bench.py). `--record FILE` also writes the
context and result to FILE for perfbench/compare.py.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
from statistics import median, median_low

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("repro-full", "isp-million", "repro-warm")
# Default seed, and the second seed a gain claim is confirmed on.
DEFAULT_SEED = 42
HELD_OUT_SEED = 2011
# Thread budget of every CLI pass (`--threads`); perfbench-harness sets
# the same budget for isp-million (`set_thread_budget`).
THREADS = 2
# Set-ups per run of a CLI workload (isp-million sets up once per pass);
# `setup_s` is their median.
SETUPS = 3
# Fewest timed passes per run, however long they take.
MIN_PASSES = 3
# Figure JSON tolerance, the rule of tests/golden_regression.rs.
JSON_TOL = 1e-9

SIZES = {
    # Paper-default CLI config (400 flows per dataset); `sweep_smoke`'s
    # million-flow parameters (1000 distinct flows, each replicated).
    "full": {"cli": [], "replication": 1000},
    "tiny": {"cli": ["--quick"], "replication": 10},
}

END_TO_END_UNITS = {
    "wall_s": "s",
    "cpu_s": "s",
    "work_per_s": "1/s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
    "success_frac": "ratio",
}

LAYER_UNITS = {
    "datasets.generate_s": "s",
    "datasets.generate_replicated_s": "s",
    "datasets.export_s": "s",
    "datasets.join_s": "s",
    "netflow.collect_s": "s",
    "netflow.matrix_s": "s",
    "netflow.records": "count",
    "netflow.datagrams": "count",
    "netflow.records_per_s": "1/s",
    "netflow.recovered_frac": "ratio",
    "core.fit_s": "s",
    "core.coalesce_s": "s",
    "core.coalesce_groups": "count",
    "core.coalesce_ratio": "ratio",
    "core.search_s": "s",
    "core.eval_s": "s",
    "core.eval_calls": "count",
    "pool.width": "count",
    "pool.curves_wall_s": "s",
    "pool.curves_busy_s": "s",
    "pool.curves_util": "ratio",
    "stage.runs": "count",
    "stage.distinct_frac": "ratio",
    "stage.busy_s": "s",
    "stage.dataset.generate_s": "s",
    "stage.dataset.generate_runs": "count",
    "stage.dataset.generate_distinct": "count",
    "stage.exp.capture_s": "s",
    "stage.exp.result_s": "s",
    "stage.exp.theta_s": "s",
    "stage.hits": "count",
    "stage.hit_frac": "ratio",
    "store.objects": "count",
    "store.bytes": "bytes",
    "store.load_s": "s",
    "store.save_s": "s",
    "obs.overhead_frac": "ratio",
    "bench.unattributed_s": "s",
}


class BenchError(Exception):
    """The benchmark could not run (as opposed to a failed output check)."""


class Sample:
    """One pass: wall seconds, CPU seconds of all threads, peak RSS of its
    process, exit code, and its output (CLI stdout, or the harness's
    parsed result)."""

    def __init__(self, wall, cpu, rss_mb, code, result=None):
        self.wall, self.cpu, self.rss_mb, self.code = wall, cpu, rss_mb, code
        self.result = result


def json_close(a, b, path="$"):
    """Numbers equal to JSON_TOL (relative, floor 1), everything else
    exactly, key order included. Returns a mismatch path or None."""
    if isinstance(a, bool) or isinstance(b, bool):
        return None if a == b else path
    if isinstance(a, (int, float)) and isinstance(b, (int, float)):
        return None if abs(a - b) <= JSON_TOL * max(abs(a), abs(b), 1.0) else path
    if isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):
            return path + ".length"
        for i, (x, y) in enumerate(zip(a, b)):
            bad = json_close(x, y, f"{path}[{i}]")
            if bad:
                return bad
        return None
    if isinstance(a, dict) and isinstance(b, dict):
        if list(a) != list(b):
            return path + ".keys"
        for k in a:
            bad = json_close(a[k], b[k], f"{path}.{k}")
            if bad:
                return bad
        return None
    return None if a == b else path


class Bench:
    def __init__(self, args):
        self.workload = args.workload
        self.seed = args.seed
        self.seconds = args.seconds
        self.trace = args.trace == 1
        self.size_name = args.size
        self.size = SIZES[args.size]
        self.errors = []
        self.checks = {}
        self.input = {"cli": ["full", *self.size["cli"]]}
        # Whether the figures were also held against a committed
        # reference, or only against a serial run of the same build.
        self.reference_kind = "none"
        self.attempted = 0
        self.failed = 0
        root = os.getcwd()
        for needed in ("Cargo.toml", "crates/experiments/Cargo.toml",
                       "perfbench/harness/Cargo.toml"):
            if not os.path.isfile(os.path.join(root, needed)):
                raise BenchError(f"{needed} not found: run from the root of a "
                                 "checkout of the repository")
        target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
        self.target = os.path.abspath(target)
        self.cli = os.path.join(self.target, "release", "transit-experiments")
        self.harness_bin = os.path.join(self.target, "release", "perfbench-harness")
        self.dir = os.path.join(self.target, "perfbench", f"{self.workload}-{os.getpid()}")

    def build(self):
        env = dict(os.environ, CARGO_TARGET_DIR=self.target)
        for argv in (
            ["cargo", "build", "--release", "--offline", "-p", "transit-experiments",
             "--bin", "transit-experiments"],
            ["cargo", "build", "--release", "--offline", "--manifest-path",
             "perfbench/harness/Cargo.toml"],
        ):
            if subprocess.run(argv, env=env, stdout=sys.stderr).returncode != 0:
                raise BenchError("build failed: " + " ".join(argv))

    def path(self, *parts):
        return os.path.join(self.dir, *parts)

    # -- bookkeeping -------------------------------------------------------

    def check(self, name, bad):
        """Records that output check `name` ran; passes on its failure
        text (None when it held)."""
        self.checks[name] = self.checks.get(name, 0) + 1
        return bad

    def op(self, what, bad):
        """Counts one operation; it failed if `bad` is a failure text."""
        self.attempted += 1
        if bad:
            self.failed += 1
            self.errors.append(f"{what}: {bad}")
        return not bad

    def exit_ok(self, s):
        return self.check("exit_code", f"exit {s.code}" if s.code else None)

    def harness(self, *argv):
        out = subprocess.run([self.harness_bin, *map(str, argv)], stdout=subprocess.PIPE,
                             text=True)
        if out.returncode != 0:
            raise BenchError(f"harness {argv[0]} exited {out.returncode}")
        return json.loads(out.stdout.strip().splitlines()[-1])

    # -- the CLI -----------------------------------------------------------

    def cli_full(self, *extra, threads=THREADS, level="quiet"):
        """One `transit-experiments full --json` process, spawned and
        measured by `perfbench-harness exec`. Figures come back through a
        pipe, so a pass writes no files of its own; the Sample's result
        is the CLI's stdout."""
        argv = [self.cli, "full", "--seed", str(self.seed), "--threads", str(threads),
                "--log-level", level, "--json", *self.size["cli"], *extra]
        proc = subprocess.run([self.harness_bin, "exec", "--", *argv], stdout=subprocess.PIPE)
        if proc.returncode != 0:
            raise BenchError(f"harness exec exited {proc.returncode}")
        out, _, report = proc.stdout.rstrip().rpartition(b"\n")
        r = json.loads(report)
        return Sample(r["wall_s"], r["cpu_s"], r["peak_rss_mb"], r["code"], out)

    @staticmethod
    def figures(s):
        """Figure JSON text by experiment id, from a pass's stdout."""
        text, figs, pos = s.result.decode(), {}, 0
        decoder = json.JSONDecoder()
        while True:
            while pos < len(text) and text[pos].isspace():
                pos += 1
            if not text.startswith("{", pos):
                return figs
            doc, end = decoder.raw_decode(text, pos)
            figs[doc["id"]] = text[pos:end]
            pos = end

    def reference(self):
        """This seed's figures from a serial (`--threads 1`) run, checked
        against the committed reference when one exists for the seed."""
        s = self.cli_full(threads=1)
        figs = self.figures(s)
        if not self.op("reference run", self.exit_ok(s)):
            raise BenchError("the serial reference run failed")
        committed = os.path.join(HERE, "reference", f"seed-{self.seed}.json")
        self.reference_kind = "serial-only"
        if self.size_name == "full" and os.path.isfile(committed):
            self.reference_kind = "committed"
            want = json.load(open(committed))
            bad = json_close({k: json.loads(figs[k]) for k in sorted(figs)}, want)
            self.op("reference run", self.check(
                "committed_reference", bad and f"differs from {committed} at {bad}"))
        return figs

    def check_close(self, figs, ref):
        """Figures against the serial reference, to JSON_TOL."""
        bad = None
        if list(figs) != list(ref):
            bad = "figure ids differ from the reference"
        else:
            for k in ref:
                path = json_close(json.loads(figs[k]), json.loads(ref[k]), k)
                if path:
                    bad = f"{path} differs from the reference"
                    break
        return self.check("figures_match_reference", bad)

    def measure(self, run_pass):
        """Repeats `run_pass` until `seconds` of pass time are measured."""
        samples, spent = [], 0.0
        while len(samples) < MIN_PASSES or spent < self.seconds:
            s = run_pass()
            samples.append(s)
            spent += s.wall
        return samples

    def alternate(self, untraced, traced):
        """Untraced and traced passes in turn until `seconds` of pass time
        are measured, two of each at least; returns both sample lists."""
        plain, profiled, spent = [], [], 0.0
        while len(plain) < 2 or spent < self.seconds:
            for fn, acc in ((untraced, plain), (traced, profiled)):
                s = fn()
                acc.append(s)
                spent += s.wall
        return plain, profiled

    def populate(self, store, ref):
        """A cold `full --store` run into an empty store; its figures are
        checked against `ref`."""
        shutil.rmtree(store, ignore_errors=True)
        s = self.cli_full("--store", store)
        bad = self.exit_ok(s) or self.check_close(self.figures(s), ref)
        self.op("cold store run", bad)
        return s

    def generate_probe(self):
        """Seconds per `generate(net, 400, seed)` call, on fixed inputs."""
        return {"datasets.generate_s": self.harness("generate", "--seed", self.seed)["generate_s"]}

    def store_probe(self, store):
        """`Store::load` / `Store::save` timings over the populated `store`."""
        r = self.harness("store", "--store", store, "--scratch", self.path("store-copy"))
        self.op("store probe", self.check("store_loads", "; ".join(r["errors"])))
        return {
            "store.objects": r["objects"],
            "store.bytes": r["bytes"],
            "store.load_s": r["load_s"],
            "store.save_s": r["save_s"],
        }

    # -- results -----------------------------------------------------------

    def end_to_end(self, samples, setup_s, units):
        wall = median([s.wall for s in samples])
        return {
            "wall_s": wall,
            "cpu_s": median([s.cpu for s in samples]),
            "work_per_s": units / wall,
            "peak_rss_mb": median([s.rss_mb for s in samples]),
            "setup_s": median(setup_s),
            "success_frac": 1.0 - self.failed / self.attempted,
        }


# -- CLI trace parsing -------------------------------------------------------

def stage_layers(profile, wall):
    """Per-layer metrics of one profiled CLI pass: its `<id>.stages.json`
    aggregated by stage kind, program counters from the run manifest,
    and the pass time outside every stage (from `events.jsonl`)."""
    reports = []
    for name in sorted(os.listdir(profile)):
        if name.endswith(".stages.json"):
            reports.extend(json.load(open(os.path.join(profile, name))))
    runs = len(reports)
    by_kind = {}
    for r in reports:
        k = by_kind.setdefault(r["kind"], {"s": 0.0, "runs": 0, "fps": set()})
        k["s"] += r["seconds"]
        k["runs"] += 1
        k["fps"].add(r["fingerprint"])
    empty = {"s": 0.0, "runs": 0, "fps": set()}
    generate = by_kind.get("dataset.generate", empty)
    hits = sum(1 for r in reports if r["hit"])
    m = {
        "stage.runs": runs,
        "stage.distinct_frac": len({r["fingerprint"] for r in reports}) / runs,
        "stage.busy_s": sum(r["seconds"] for r in reports),
        "stage.dataset.generate_s": generate["s"],
        "stage.dataset.generate_runs": generate["runs"],
        "stage.dataset.generate_distinct": len(generate["fps"]),
        "stage.exp.capture_s": by_kind.get("exp.capture", empty)["s"],
        "stage.exp.result_s": by_kind.get("exp.result", empty)["s"],
        "stage.exp.theta_s": by_kind.get("exp.theta", empty)["s"],
        "stage.hits": hits,
        "stage.hit_frac": hits / runs,
    }
    manifest = json.load(open(os.path.join(profile, "run_manifest.json")))
    counters = manifest["metrics"]["counters"]
    m["netflow.records"] = counters.get("netflow.collector.records", 0)
    m["netflow.datagrams"] = counters.get("netflow.collector.datagrams", 0)
    m["core.eval_calls"] = sum(v for k, v in counters.items() if k.startswith("capture.evals."))
    m["core.fit_s"] = span_seconds(manifest["spans"], ("fit_ced", "fit_logit"))
    m["bench.unattributed_s"] = wall - stage_union_s(os.path.join(profile, "events.jsonl"))
    return m


def span_seconds(tree, names):
    """Summed seconds of every span-tree node whose name is in `names`."""
    total = 0.0
    for key, node in tree.items():
        if key.split("(")[0] in names:
            total += node["seconds"]
        total += span_seconds(node["children"], names)
    return total


def union_length(intervals):
    total, cur = 0.0, None
    for s, e in sorted(intervals):
        if cur and s <= cur[1]:
            cur[1] = max(cur[1], e)
        else:
            if cur:
                total += cur[1] - cur[0]
            cur = [s, e]
    return total + (cur[1] - cur[0] if cur else 0.0)


def stage_union_s(events):
    """Seconds covered by at least one `stage.run` span in the journal."""
    open_spans, intervals = {}, []
    with open(events) as f:
        for line in f:
            e = json.loads(line)
            if not e.get("name", "").startswith("stage.run("):
                continue
            stack = open_spans.setdefault(e["tid"], [])
            if e["ph"] == "B":
                stack.append(e["ts"])
            elif e["ph"] == "E" and stack:
                intervals.append((stack.pop(), e["ts"]))
    return union_length(intervals) / 1e6


def median_layers(per_pass):
    """Per-metric median over passes (a sample, so counts stay whole)."""
    return {k: median_low([m[k] for m in per_pass]) for k in per_pass[0]}


# -- workloads ---------------------------------------------------------------

def cli_layers(b, run_pass, ref, *extra):
    """Alternates untraced passes with profiled ones (`--profile DIR
    --log-level info`, plus `extra`); per-layer metrics, medians over the
    profiled passes."""
    per_pass = []

    def traced():
        profile = b.path("profile")
        shutil.rmtree(profile, ignore_errors=True)
        s = b.cli_full("--profile", profile, *extra, level="info")
        bad = b.exit_ok(s) or b.check_close(b.figures(s), ref)
        if b.op("profiled pass", bad):
            per_pass.append(stage_layers(profile, s.wall))
        s.result = None
        return s

    plain, profiled = b.alternate(run_pass, traced)
    m = median_layers(per_pass) if per_pass else {}
    m["obs.overhead_frac"] = median([s.wall for s in profiled]) / median(
        [s.wall for s in plain]) - 1.0
    return m


def repro_full(b):
    ref = b.reference()
    first = {}

    def run_pass():
        s = b.cli_full()
        figs = b.figures(s)
        bad = b.exit_ok(s)
        if not bad and not first:
            first.update(figs)
            bad = b.check_close(figs, ref)
        elif not bad:
            bad = b.check("passes_byte_identical",
                          figs != first and "figures differ from the first pass")
        b.op("repro-full pass", bad)
        s.result = None
        return s

    # Set-up: discarded warm-up passes.
    setup_s = []
    for _ in range(1 if b.trace else SETUPS):
        s = b.cli_full()
        b.op("warm-up pass", b.exit_ok(s))
        setup_s.append(s.wall)
    if not b.trace:
        return b.end_to_end(b.measure(run_pass), setup_s, len(ref))

    m = cli_layers(b, run_pass, ref)
    m.update(b.generate_probe())
    return m


def repro_warm(b):
    ref = b.reference()
    store = b.path("store")
    setup_s = []
    for _ in range(1 if b.trace else SETUPS):
        setup_s.append(b.populate(store, ref).wall)

    def objects():
        d = os.path.join(store, "objects")
        return {n: (st.st_ino, st.st_size) for n in os.listdir(d)
                for st in [os.stat(os.path.join(d, n))]}

    # A stage miss recomputes and re-saves its artifact (a new file by
    # tmp + rename), so an unchanged inode/size set means every stage hit.
    before = objects()
    n_artifacts = len(before)
    first = []

    def run_pass():
        s = b.cli_full("--store", store, "--resume")
        # The first good pass is parsed and held against the reference;
        # later passes must repeat its stdout byte for byte.
        same = s.result == first[0] if first else b.figures(s) == ref
        bad = b.exit_ok(s) or b.check(
            "figures_byte_identical_to_reference",
            not same and "figures not byte-identical to the reference")
        bad = bad or b.check("all_stages_hit",
                             objects() != before and "a stage missed the store")
        if not bad and not first:
            first.append(s.result)
        b.op("repro-warm pass", bad)
        s.result = None
        return s

    if not b.trace:
        return b.end_to_end(b.measure(run_pass), setup_s, n_artifacts)

    m = cli_layers(b, run_pass, ref, "--store", store, "--resume")
    m.update(b.store_probe(store))
    return m


def span_layers(path):
    """Per-layer seconds from a harness spans file: each layer's summed
    span time (busy seconds across threads on the pool), and
    `unattributed`, the pass time that no direct child of the pass covers."""
    spans = json.load(open(path))
    layers = {}
    for s in spans:
        name = s["name"].split("(")[0]
        layers[name] = layers.get(name, 0.0) + s["end"] - s["start"]
    root = next(i for i, s in enumerate(spans) if s["name"] == "pass")
    children = [(s["start"], s["end"]) for s in spans if s["parent"] == root]
    layers["unattributed"] = (spans[root]["end"] - spans[root]["start"]
                              - union_length(children))
    return layers


def isp_layers(r):
    """Per-layer metrics of one traced harness pass."""
    layers = r["layers"]
    return {
        "datasets.generate_replicated_s": layers["datasets.generate_replicated"],
        "datasets.export_s": layers["datasets.export"],
        "datasets.join_s": layers["datasets.join"],
        "netflow.collect_s": layers["netflow.collect"],
        "netflow.matrix_s": layers["netflow.matrix"],
        "netflow.records": r["records"],
        "netflow.datagrams": r["datagrams"],
        "netflow.records_per_s": r["records"] / layers["netflow.collect"],
        "netflow.recovered_frac": r["measured"] / r["n_raw"],
        "core.fit_s": layers["core.fit"],
        "core.coalesce_s": layers["core.coalesce"],
        "core.coalesce_groups": r["groups"],
        "core.coalesce_ratio": r["measured"] / r["groups"],
        "core.search_s": layers["core.search"],
        "core.eval_s": layers["core.capture"] - layers["core.search"],
        "core.eval_calls": r["eval_calls"],
        "pool.width": r["width"],
        "pool.curves_wall_s": r["curves_wall_s"],
        "pool.curves_busy_s": r["curves_busy_s"],
        "pool.curves_util": r["curves_busy_s"] / (r["width"] * r["curves_wall_s"]),
        "bench.unattributed_s": layers["unattributed"],
    }


def isp_million(b):
    """One harness process per pass: set-up, then the timed pass."""
    argv = ["isp", "--seed", b.seed, "--replication", b.size["replication"]]
    spans = os.path.join(b.target, "perfbench", f"isp-million-{b.seed}.spans.json")
    first = []

    def run_pass(trace=False):
        # The first pass also checks every grouped profit against the raw
        # market; later passes must reproduce its curves.
        r = b.harness(*argv, "--check", int(not first), "--trace", int(trace),
                      *(["--spans-out", spans] if trace else []))
        if trace:
            r["layers"] = span_layers(spans)
        for name, n in r["checks"].items():
            b.checks[name] = b.checks.get(name, 0) + n
        bad = "; ".join(r["errors"])
        b.input = {"raw_flows": r["n_raw"]}
        if not bad and not first:
            first.append(r["curves"])
        elif not bad:
            bad = b.check("curves_identical", r["curves"] != first[0]
                          and "curves differ across passes")
        b.op("isp-million pass", bad)
        return Sample(r["wall_s"], r["cpu_s"], r["peak_rss_mb"], 0, r)

    if not b.trace:
        samples = b.measure(run_pass)
        return b.end_to_end(samples, [s.result["setup_s"] for s in samples],
                            samples[0].result["n_raw"])

    plain, profiled = b.alternate(run_pass, lambda: run_pass(trace=True))
    m = median_layers([isp_layers(s.result) for s in profiled])
    m["obs.overhead_frac"] = median([s.wall for s in profiled]) / median(
        [s.wall for s in plain]) - 1.0
    return m


RUNNERS = {"repro-full": repro_full, "isp-million": isp_million, "repro-warm": repro_warm}


# -- context -----------------------------------------------------------------

def git_rev():
    """HEAD of the checkout when it is a git work tree, else "unknown"."""
    try:
        head = open(".git/HEAD").read().strip()
        if head.startswith("ref: "):
            return open(os.path.join(".git", head[5:])).read().strip()
        return head
    except OSError:
        return "unknown"


def context(b, load_before):
    return {
        "workload": b.workload,
        "seed": b.seed,
        "size": b.size_name,
        "input": b.input,
        "available_parallelism": len(os.sched_getaffinity(0)),
        "thread_budget": THREADS,
        "run_seconds": b.seconds,
        "trace": int(b.trace),
        "loadavg_before": list(load_before),
        "loadavg_after": list(os.getloadavg()),
        "git_rev": git_rev(),
        "reference": b.reference_kind,
        "checks": b.checks,
    }


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED,
                   help=f"workload seed (held-out seed for confirming gains: {HELD_OUT_SEED})")
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=tuple(SIZES), default="full")
    p.add_argument("--record", help="also write the context and result to this file")
    args = p.parse_args()
    try:
        b = Bench(args)
        b.build()
        load_before = os.getloadavg()
        shutil.rmtree(b.dir, ignore_errors=True)
        os.makedirs(b.dir)
        try:
            values = RUNNERS[b.workload](b)
        finally:
            shutil.rmtree(b.dir, ignore_errors=True)
    except BenchError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 2
    units = LAYER_UNITS if b.trace else END_TO_END_UNITS
    # Layers a workload never enters report 0.
    metrics = {name: {"value": values.get(name, 0), "unit": unit}
               for name, unit in units.items()}
    for e in b.errors:
        print(f"perfbench: {e}", file=sys.stderr)
    result = {
        "correct": not b.errors and b.failed == 0,
        "attempted": b.attempted,
        "failed": b.failed,
        "metrics": metrics,
    }
    ctx = context(b, load_before)
    if args.record:
        with open(args.record, "w") as f:
            json.dump({"context": ctx, "result": result}, f, indent=1)
    print(json.dumps({"context": ctx}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
