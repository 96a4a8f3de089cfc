"""Benchmark of the prefrank CLI walkthrough (README steps 1-6).

One command measures one workload and prints every metric:

    python3 bench/run.py --workload small-pools --seed 1 --seconds 55 --trace 0

It writes the workload's inputs from --seed, then:

--trace 0  runs `ingest, embed, rank, loss, train-toy, eval` as child
           processes, one after another, in rounds until --seconds are
           used; a fresh interpreter measures set-up twice per round.
           Prints the end-to-end metrics of BENCHMARK.json (rates per
           CPU second of each child's process tree) as medians over
           rounds, with quartiles and round count.
--trace 1  runs the same argv in this process through
           `prefrank.cli.main` with one worker, alternating untraced and
           traced passes, then a fixed pool-size sweep, and prints the
           per-layer metrics of BENCHMARK.json.

Every round's outputs are checked.  The last stdout line is one JSON
object with `correct`, `attempted`, `failed` and `metrics`.  A results
record (machine, raw rounds, artifact SHA-256s, spans) is written under
`.bench_work/` at the root of the checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
import traceback
from pathlib import Path

import numpy as np

import checks
import tracing
import workload

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

STEPS = ("ingest", "embed", "rank", "loss", "train-toy", "eval")
# The artifact of each step; within one seed every round must reproduce it byte for byte.
ARTIFACTS = {
    "ingest": "records.jsonl",
    "embed": "embeddings.tsv",
    "rank": "ranks.jsonl",
    "loss": "losses.jsonl",
    "train-toy": "policy.bin",
    "eval": "report.json",
}
# Rates divide by the CPU time of the subcommand's process tree, not its
# wall time: on a shared virtual machine the hypervisor steals CPU in
# bursts, which stretches wall time but is not charged to the process.
RATE_METRICS = {
    "ingest": "ingest_posts_per_cpu_s",
    "embed": "embed_texts_per_cpu_s",
    "rank": "rank_records_per_cpu_s",
    "loss": "loss_records_per_cpu_s",
    "train-toy": "train_steps_per_cpu_s",
    "eval": "eval_records_per_cpu_s",
}
CHILD_TIMEOUT_S = 150
SETUP_PROBES_PER_ROUND = 2
SWEEP_REPEATS = {16: 9, 64: 5, 256: 3}  # pool size -> calls per traced layer


def pipeline_argv(plan) -> list[tuple[str, list[str]]]:
    """README steps 1-6 for the workload, with paths relative to its work directory."""
    shape = plan.shape
    table = ["--embeddings", "embeddings.tsv"] if shape.table else []
    generations = ["--generations", "gens.jsonl"] if shape.table else []
    return [
        ("ingest", ["ingest", "Posts.xml", "--out", "records.jsonl", "--require-code-block",
                    "--min-pool-size", str(shape.min_pool_size), "--min-vote-gap", str(workload.MIN_VOTE_GAP)]),
        ("embed", ["embed", "--records", "records.jsonl", "--out", "embeddings.tsv", *generations]),
        ("rank", ["rank", "--records", "records.jsonl", "--out", "ranks.jsonl", *table]),
        ("loss", ["loss", "--records", "records.jsonl", "--logprobs", "logprobs.jsonl",
                  "--out", "losses.jsonl", *table]),
        ("train-toy", ["train-toy", "--records", "records.jsonl", "--out-policy", "policy.bin",
                       "--trace", "train_trace.jsonl", "--epochs", str(workload.EPOCHS), *table]),
        ("eval", ["eval", "--records", "records.jsonl", "--generations", "gens.jsonl",
                  "--out", "report.json", *table]),
    ]


def work_per_step(plan) -> dict[str, int]:
    """What each step's rate divides by: dump rows for ingest, else the count it prints."""
    kept = len(plan.kept)
    return {"ingest": plan.dump_rows, "embed": plan.embedded, "rank": kept, "loss": kept,
            "train-toy": plan.steps, "eval": kept}


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class Checker:
    """Checks each round's outputs: full checks on the first round, digests after."""

    def __init__(self, prefrank, plan, work: Path):
        self.prefrank = prefrank
        self.plan = plan
        self.work = work
        self.reference: dict[str, str] | None = None
        self.records = None
        self.table = None

    def check(self, rnd: dict) -> None:
        """Record the round's digests and its problems per step in `rnd`."""
        problems = {step: [] for step in STEPS}
        for step, result in rnd["steps"].items():
            if result["code"] != 0:
                problems[step].append(f"exit code {result['code']}: {result['stderr'].strip()[-300:]}")
            else:
                problems[step] += checks.check_stdout(self.plan, step, result["stdout"])
        digests = {step: sha256(self.work / name) for step, name in ARTIFACTS.items() if (self.work / name).exists()}
        rnd["digests"] = digests
        first = self.reference is None
        if first:
            self.reference = digests
            self._guard(problems, "ingest", self._check_records)
        else:
            for step in STEPS:
                if digests.get(step) != self.reference.get(step):
                    problems[step].append(f"{ARTIFACTS[step]} differs from the first round's")
        # Every round reads the embed step's table back through the public reader.
        self._guard(problems, "embed", self._check_table)
        if first:
            pr, plan, work = self.prefrank, self.plan, self.work
            self._guard(problems, "rank", lambda: checks.check_ranks(
                pr, self.records, self.table if plan.shape.table else None, work / "ranks.jsonl"))
            self._guard(problems, "loss", lambda: checks.check_losses(self.records, work / "losses.jsonl"))
            self._guard(problems, "train-toy", lambda: checks.check_training(
                pr, plan, work / "policy.bin", work / "train_trace.jsonl"))
            self._guard(problems, "eval", lambda: checks.check_report(plan, work / "report.json"))
        rnd["problems"] = {step: found for step, found in problems.items() if found}

    def _check_records(self):
        self.records = self.prefrank.read_records(self.work / "records.jsonl")
        return checks.check_records(self.plan, self.records)

    def _check_table(self):
        self.table = self.prefrank.embed.load_external_embeddings(self.work / "embeddings.tsv")
        return checks.check_table(self.plan, self.table, self.records)

    @staticmethod
    def _guard(problems, step, check):
        # A check that cannot run (missing or unreadable output) is a failed check.
        try:
            problems[step] += check()
        except Exception as exc:
            problems[step].append(f"check could not run: {exc!r}")


def run_child(argv: list[str], cwd: Path, env: dict) -> tuple[int, str, str, float, float, float]:
    """Run one child to completion.

    Returns exit code, stdout, stderr, wall seconds, CPU seconds (user +
    system) and peak RSS in MB.
    """
    out_path, err_path = cwd / ".stdout", cwd / ".stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=out, stderr=err)
        killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            # wait4 returns the child's own rusage; its CPU time and peak
            # RSS cover the process-pool workers it reaped.
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    cpu = usage.ru_utime + usage.ru_stime
    return proc.returncode, out_path.read_text(), err_path.read_text(), wall, cpu, usage.ru_maxrss / 1024


def timed_round(plan, work: Path, env: dict) -> dict:
    steps = {}
    for step, args in pipeline_argv(plan):
        code, out, err, wall, cpu, rss_mb = run_child([sys.executable, "-m", "prefrank.cli", *args], work, env)
        steps[step] = {"code": code, "stdout": out, "stderr": err, "wall_s": wall, "cpu_s": cpu, "rss_mb": rss_mb}
    probe = [sys.executable, str(BENCH / "setup_probe.py"), "records.jsonl", "logprobs.jsonl"]
    if plan.shape.table:
        probe.append("embeddings.tsv")
    setup = []
    for _ in range(SETUP_PROBES_PER_ROUND):
        code, out, err, _, _, _ = run_child(probe, work, env)
        if code != 0:
            raise RuntimeError(f"set-up probe failed: {err.strip()[-300:]}")
        setup.append(json.loads(out)["setup_s"])
    return {"steps": steps, "setup_s": setup}


def timed_run(prefrank, plan, work: Path, seconds: float) -> tuple[list[dict], dict[str, list[float]]]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    checker = Checker(prefrank, plan, work)
    rounds, measured = [], 0.0
    while True:
        start = time.perf_counter()
        rnd = timed_round(plan, work, env)
        measured += time.perf_counter() - start
        checker.check(rnd)
        rounds.append(rnd)
        if measured * (len(rounds) + 1) / len(rounds) > seconds:
            break
    work_done = work_per_step(plan)
    names = ("setup_s", *RATE_METRICS.values(), "pipeline_cpu_s", "peak_rss_mb", "pipeline_wall_s")
    samples = {name: [] for name in names}
    for rnd in rounds:
        steps = rnd["steps"]
        for step, name in RATE_METRICS.items():
            samples[name].append(work_done[step] / steps[step]["cpu_s"])
        samples["setup_s"] += rnd["setup_s"]
        samples["pipeline_cpu_s"].append(sum(s["cpu_s"] for s in steps.values()))
        samples["peak_rss_mb"].append(max(s["rss_mb"] for s in steps.values()))
        samples["pipeline_wall_s"].append(sum(s["wall_s"] for s in steps.values()))
    return rounds, samples


@contextlib.contextmanager
def one_worker():
    """Make the default worker count 1 without passing --workers, so argv stays the timed runs'."""
    saved = os.cpu_count
    os.cpu_count = lambda: 1
    try:
        yield
    finally:
        os.cpu_count = saved


def in_process_round(cli, plan, tracer: tracing.Tracer | None) -> dict:
    steps = {}
    for step, args in pipeline_argv(plan):
        out, err = io.StringIO(), io.StringIO()
        scope = tracer.span(f"cli.{step}") if tracer else contextlib.nullcontext()
        start = time.perf_counter()
        try:
            with scope, contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(args)
        except Exception:  # a crash is a failed invocation, not a benchmark crash
            code = 1
            err.write(traceback.format_exc())
        steps[step] = {"code": code, "stdout": out.getvalue(), "stderr": err.getvalue(),
                       "wall_s": time.perf_counter() - start}
    return {"steps": steps}


def sweep(prefrank, tracer: tracing.Tracer, seed: int) -> None:
    """Fixed pool sizes through the ranking, comparison-loss and gradient layers."""
    rng = np.random.default_rng(seed)
    embedder = prefrank.HashedNgramEmbedder()
    policy = prefrank.ToyPolicy.fresh(seed=0)
    tracer.install("sweep")
    try:
        for size, repeats in SWEEP_REPEATS.items():
            for k in range(repeats):
                question, answers = workload.sweep_pool(seed, size, k)
                record = prefrank.QARecord(
                    question_id=f"sweep-{size}-{k}",
                    question_text=question,
                    question_created_at=workload.T0,
                    candidates=tuple(
                        prefrank.ResponseCandidate(id=str(i), content=text, votes=max(0, votes), created_at=created)
                        for i, (text, votes, created) in enumerate(answers)
                    ),
                )
                decay = checks.cli_default_decay(prefrank, [record])
                bundle = prefrank.pipeline.build_perception(record, embedder=embedder, decay=decay)
                pi_s = rng.uniform(-3.0, -0.5, size)
                prefrank.objective.perceptual_comparison_loss(pi_s, bundle.dynamic, bundle.singles, bundle.multi)
                prefrank.policy.loss_gradient(policy, record, bundle)
    finally:
        tracer.uninstall()


def traced_run(prefrank, plan, work: Path, seconds: float, spec_names: list[str]):
    import prefrank.cli as cli

    tracer = tracing.Tracer()
    checker = Checker(prefrank, plan, work)
    rounds, traced_ids, measured = [], [], 0.0
    cwd = os.getcwd()
    os.chdir(work)
    try:
        with one_worker():
            while True:
                # Untraced first in even pairs, traced first in odd ones.
                order = (False, True) if len(rounds) % 4 == 0 else (True, False)
                for traced in order:
                    trace_id = f"{plan.workload}-seed{plan.seed}-pass{len(rounds)}"
                    start = time.perf_counter()
                    if traced:
                        tracer.install(trace_id)
                        traced_ids.append(trace_id)
                    try:
                        rnd = in_process_round(cli, plan, tracer if traced else None)
                        # The table read-back is traced too, so every workload uses the TSV reader.
                        checker.check(rnd)
                    finally:
                        tracer.uninstall()
                    measured += time.perf_counter() - start
                    rnd["traced"] = traced
                    rounds.append(rnd)
                if measured * (len(rounds) + 2) / len(rounds) > seconds:
                    break
            sweep(prefrank, tracer, plan.seed)
    finally:
        os.chdir(cwd)
    tracer.write(work / "spans.jsonl")
    values = layer_values(tracer, traced_ids, plan, rounds)
    missing = [name for name in spec_names if name not in values]
    if missing:
        raise RuntimeError(f"per-layer metrics not measured: {missing}")
    return rounds, values, module_shares(tracer, traced_ids)


def layer_values(tracer: tracing.Tracer, traced_ids: list[str], plan, rounds: list[dict]) -> dict[str, float]:
    """Per-layer metrics: per-pass means of calls and times, pooled percentiles."""
    passes = len(traced_ids)
    values = {}
    for name, st in tracer.layer_stats(set(traced_ids)).items():
        values[f"{name}.calls"] = st.calls / passes
        if st.durations:
            values[f"{name}.busy_s"] = st.busy_s / passes
            values[f"{name}.self_s"] = st.self_s / passes
            values[f"{name}.p50_us"] = statistics.median(st.durations) * 1e6
            values[f"{name}.tail_us"] = tracing.tail(st.durations) * 1e6
    for (name, size), p50 in tracer.p50_by_size("sweep").items():
        values[f"{name}.p50_us.m{size}"] = p50 * 1e6
    ingest = checks.parse_stdout(rounds[0]["steps"]["ingest"]["stdout"])
    values["corpus.kept_ratio"] = int(ingest["quality"]) / int(ingest["parsed"])
    evaluated = checks.parse_stdout(rounds[0]["steps"]["eval"]["stdout"])
    values["evaluation.evaluated_ratio"] = int(evaluated["n_records"]) / len(plan.kept)
    pipeline = {traced: [sum(s["wall_s"] for s in r["steps"].values()) for r in rounds if r["traced"] == traced]
                for traced in (False, True)}
    values["trace.overhead_ratio"] = statistics.median(pipeline[True]) / statistics.median(pipeline[False])
    return values


def module_shares(tracer: tracing.Tracer, traced_ids: list[str]) -> dict[str, float]:
    """Share of traced self time per module (self times add up to the traced total)."""
    by_module = {}
    for name, st in tracer.layer_stats(set(traced_ids)).items():
        module = name.split(".")[0]
        by_module[module] = by_module.get(module, 0.0) + st.self_s
    total = sum(by_module.values())
    return {module: value / total for module, value in sorted(by_module.items())}


def summary(values: list[float]) -> dict:
    ordered = sorted(values)
    q1, _, q3 = statistics.quantiles(ordered, n=4) if len(ordered) > 1 else (ordered[0],) * 3
    return {"median": statistics.median(ordered), "q1": q1, "q3": q3, "n": len(ordered), "values": ordered}


def without_output(rnd: dict) -> dict:
    """A round for the results record: the steps' captured stdout and stderr dropped."""
    steps = {step: {k: v for k, v in s.items() if k not in ("stdout", "stderr")} for step, s in rnd["steps"].items()}
    return {**rnd, "steps": steps}


def git_commit() -> str | None:
    """The checkout's commit, read from .git without running git (absent in exported trees)."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    for line in packed.read_text().splitlines() if packed.is_file() else []:
        if line.endswith(" " + ref):
            return line.split()[0]
    return None


def machine() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {key: blas.get(key) for key in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError):
        blas = None
    threads = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "os_cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "numpy_blas": blas,
        "thread_env": {name: os.environ.get(name) for name in threads},
        "platform": platform.platform(),
        "git_commit": git_commit(),
    }


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "prefrank" / "cli.py").is_file():
        print(f"error: no prefrank sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import prefrank

    plan = workload.make_plan(args.workload, args.seed)
    work = WORK / f"{args.workload}-seed{args.seed}"
    shutil.rmtree(work, ignore_errors=True)
    workload.write_inputs(plan, work)

    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
              "machine": machine()}
    if args.trace:
        rounds, values, shares = traced_run(prefrank, plan, work, args.seconds, [m["name"] for m in declared])
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
        record["module_self_share"] = shares
        record["layer_values"] = values
    else:
        rounds, samples = timed_run(prefrank, plan, work, args.seconds)
        record["samples"] = {name: summary(values) for name, values in samples.items()}
        metrics = {m["name"]: {"value": record["samples"][m["name"]]["median"], "unit": m["unit"]} for m in declared}

    attempted = len(rounds) * len(STEPS)
    failed = sum(len(r["problems"]) for r in rounds)
    record["rounds"] = [without_output(r) for r in rounds]
    record["artifacts_sha256"] = {ARTIFACTS[step]: digest for step, digest in rounds[0]["digests"].items()}
    record["failed_ops_ratio"] = failed / attempted
    with open(WORK / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json", "w", encoding="utf-8") as out:
        json.dump(record, out, indent=1, sort_keys=True)

    mode = "traced, in-process, 1 worker" if args.trace else f"timed, child processes, {os.cpu_count()} workers"
    print(f"# workload {args.workload}  seed {args.seed}  {mode}  rounds {len(rounds)}")
    for m in declared:
        line = f"{m['name']:<48} {metrics[m['name']]['value']:>14.6g} {m['unit']}"
        if not args.trace:
            s = record["samples"][m["name"]]
            line += f"  (q1 {s['q1']:.6g}, q3 {s['q3']:.6g}, n {s['n']})"
        print(line)
    if not args.trace:
        wall = record["samples"]["pipeline_wall_s"]
        print(f"{'pipeline_wall_s (recorded, not bounded)':<48} {wall['median']:>14.6g} s"
              f"  (q1 {wall['q1']:.6g}, q3 {wall['q3']:.6g}, n {wall['n']})")
    print(f"{'failed_ops_ratio':<48} {failed / attempted:>14.6g} ratio  ({failed} of {attempted} invocations)")
    if args.trace:
        for module, share in record["module_self_share"].items():
            print(f"self-time share {module:<32} {share:>14.4f}")
    for name, digest in record["artifacts_sha256"].items():
        print(f"sha256 {name:<42} {digest}")
    for i, r in enumerate(rounds):
        for step, found in r["problems"].items():
            print(f"round {i} {step}: {'; '.join(found)}", file=sys.stderr)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
