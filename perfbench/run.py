#!/usr/bin/env python3
"""End-to-end benchmark of the nvfs simulator.

Run from the root of a checkout:

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test
    python3 perfbench/run.py --write-golden [--workload W ...]

The first run builds perfbench/ (the simulator libraries from src/ plus
the C++ runner) in Release mode under .bench_build/perfbench.  Each run
starts one runner process for the workload, reads the JSON lines it
flushes (manifest, set-ups, passes, cells, summary), checks every cell
against perfbench/golden/<workload>.txt when the seed is the golden
seed, and prints the metrics named in BENCHMARK.json, the last line
being one JSON object {"correct", "attempted", "failed", "metrics"}.

An operation is one result cell of one pass, plus the runner process
itself: a process that exits abnormally after writing its results
counts as one failed operation, so it shows in `failed` without making
the checked outputs incorrect.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
RUNNER = os.path.join(BUILD, "perfbench_runner")
GOLDEN_DIR = os.path.join(HERE, "golden")
GOLDEN_SEED = 1
WORKLOADS = ["paper_client", "server_replay", "crashsweep", "trace_files"]
RUN_DEADLINE_S = 170


def log(message):
    print(message, file=sys.stderr, flush=True)


def fail(message, code=2):
    log("perfbench: " + message)
    sys.exit(code)


def source_files():
    """Files the runner build depends on, relative to ROOT."""
    files = []
    for top in ("src", "perfbench"):
        for base, dirs, names in os.walk(os.path.join(ROOT, top)):
            dirs[:] = sorted(d for d in dirs if d != "golden")
            for name in sorted(names):
                if name.endswith((".cpp", ".hpp", ".txt")):
                    files.append(os.path.relpath(os.path.join(base, name), ROOT))
    files.append(os.path.join("bench", "bench_util.hpp"))
    return files


def source_digest():
    digest = hashlib.sha256()
    for rel in source_files():
        digest.update(rel.encode())
        with open(os.path.join(ROOT, rel), "rb") as f:
            digest.update(f.read())
    return digest.hexdigest()


def git_revision():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def ensure_built():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no simulator sources under %s/src; run from the root of a "
             "full checkout" % ROOT)
    digest = source_digest()
    stamp = os.path.join(BUILD, "source.sha256")
    if os.path.isfile(RUNNER) and os.path.isfile(stamp):
        with open(stamp) as f:
            if f.read().strip() == digest:
                return digest
    os.makedirs(BUILD, exist_ok=True)
    build_log = os.path.join(BUILD, "build.log")
    with open(build_log, "w") as out:
        for cmd in (["cmake", "-S", HERE, "-B", BUILD,
                     "-DCMAKE_BUILD_TYPE=Release"],
                    ["cmake", "--build", BUILD, "--target", "perfbench_runner",
                     "-j", str(os.cpu_count() or 1)]):
            if subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT).returncode:
                with open(build_log) as f:
                    log(f.read()[-4000:])
                fail("build failed: " + " ".join(cmd))
    with open(stamp, "w") as f:
        f.write(digest + "\n")
    return digest


def check_environment():
    if "NVFS_TRACE_CACHE" in os.environ:
        fail("NVFS_TRACE_CACHE is set; set-up would time a trace-cache hit "
             "instead of generation.  Unset it.")


def run_runner(workload, seed, seconds, env_extra=None, trace_file=None,
               setups=3, passes=None, smoke=False, deadline=None):
    """Run the runner once.  Returns (records, returncode, rusage, stderr)."""
    work = tempfile.mkdtemp(prefix="run-", dir=BUILD)
    out_path = os.path.join(work, "results.jsonl")
    cmd = [RUNNER, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--out", out_path, "--workdir", work,
           "--setups", str(setups)]
    if passes:
        cmd += ["--passes", str(passes)]
    if trace_file:
        cmd += ["--trace", trace_file]
    if smoke:
        cmd.append("--smoke")
    env = dict(os.environ)
    env.setdefault("NVFS_JOBS", str(os.cpu_count() or 1))
    env.update(env_extra or {})
    err_path = os.path.join(work, "stderr.txt")
    try:
        with open(err_path, "w") as err:
            proc = subprocess.Popen(cmd, stdout=err, stderr=err, env=env,
                                    cwd=work)
            timeout = None if deadline is None else max(1.0, deadline - time.time())
            waited = None
            start = time.time()
            while waited is None:
                pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
                if pid:
                    waited = (status, usage)
                elif timeout is not None and time.time() - start > timeout:
                    proc.send_signal(signal.SIGKILL)
                    _, status, usage = os.wait4(proc.pid, 0)
                    waited = (status, usage)
                    log("perfbench: runner killed at the run deadline")
                else:
                    time.sleep(0.05)
        code = os.waitstatus_to_exitcode(waited[0])
        records = []
        if os.path.isfile(out_path):
            with open(out_path) as f:
                for line in f:
                    try:
                        records.append(json.loads(line))
                    except json.JSONDecodeError:
                        break  # torn last line of a dead process
        with open(err_path) as f:
            stderr = f.read()
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return records, code, waited[1], stderr


def load_golden(workload):
    path = os.path.join(GOLDEN_DIR, workload + ".txt")
    if not os.path.isfile(path):
        return None
    golden = {}
    with open(path) as f:
        for line in f:
            if line.startswith("#") or not line.strip():
                continue
            name, *fields = line.split()
            golden[name] = [tuple(_split_field(x)) for x in fields]
    return golden


def _split_field(text):
    key, value = text.rsplit("=", 1)
    return key, int(value)


def cell_lines(cells):
    return ["%s %s" % (c["name"], " ".join("%s=%d" % (k, v) for k, v in c["fields"]))
            for c in cells]


def golden_mismatch(workload, cell, golden):
    """None if `cell` matches its golden, else a message naming the field."""
    want = golden.get(cell["name"])
    if want is None:
        return "workload %s cell %s: not in the golden" % (workload, cell["name"])
    got = [tuple(x) for x in cell["fields"]]
    for i in range(max(len(got), len(want))):
        g = got[i] if i < len(got) else ("<missing>", None)
        w = want[i] if i < len(want) else ("<missing>", None)
        if g != w:
            field = w[0] if w[0] != "<missing>" else g[0]
            return ("workload %s cell %s field %s: got %s, golden %s"
                    % (workload, cell["name"], field, g[1], w[1]))
    return None


class Outcome:
    """Failure accounting and output checks of one runner run."""

    def __init__(self, workload, records, returncode, stderr, golden):
        self.problems = []   # everything that failed, for the report
        self.incorrect = []  # outputs that fail a check
        self.attempted = 1   # the runner process itself
        self.failed = 0 if returncode == 0 else 1
        kinds = [r.get("type") for r in records]
        self.manifest = records[0] if kinds[:1] == ["manifest"] else None
        self.summary = next((r for r in records if r.get("type") == "summary"), None)
        self.setups = [r["seconds"] for r in records if r.get("type") == "setup"]
        self.passes = [r for r in records if r.get("type") == "pass"]
        self.cells = [r for r in records if r.get("type") == "cell"]
        begun = kinds.count("pass_begin")
        for p in self.passes:
            self.attempted += p["cells"]
        for c in self.cells:
            where = "cell %s (pass %d)" % (c["name"], c["pass"])
            if c["error"]:
                self.problems.append("%s failed: %s" % (where, c["error"]))
            elif c["wrong"]:
                self.incorrect.append("%s: %s" % (where, c["wrong"]))
            elif golden is not None:
                mismatch = golden_mismatch(workload, c, golden)
                if mismatch:
                    self.incorrect.append("%s: %s" % (where, mismatch))
        self.failed += len(self.problems) + len(self.incorrect)
        if golden is not None and self.passes:
            for name in sorted(set(golden) - {c["name"] for c in self.cells}):
                self.attempted += 1
                self.failed += 1
                self.incorrect.append("workload %s cell %s: in the golden "
                                      "but not produced" % (workload, name))
        if begun > len(self.passes):
            # The process died inside a pass: all its cells are lost.
            lost = self.passes[0]["cells"] if self.passes else 1
            self.attempted += lost
            self.failed += lost
            self.problems.append("pass %d did not finish" % len(self.passes))
        if returncode != 0:
            self.problems.append("runner exited with %s after %s"
                                 % (describe_exit(returncode),
                                    "writing its results" if self.summary
                                    else "a partial run"))
        self.problems += ["panic text: " + l for l in stderr.splitlines()
                          if "[nvfs:panic]" in l or "[nvfs:fatal]" in l]

    @property
    def correct(self):
        """Every output produced passed its checks, and at least one
        pass produced them.  Cells that panicked or threw, and a
        process that died, are failed operations, not wrong outputs."""
        return (self.manifest is not None and bool(self.passes)
                and not self.incorrect)

    def timings(self):
        """End-to-end timings of the untraced passes (medians)."""
        plain = [p for p in self.passes if not p["traced"]]
        if not plain:
            return {}
        return {
            "wall_s": statistics.median(p["seconds"] for p in plain),
            "events_per_s": statistics.median(p["events"] / p["seconds"]
                                              for p in plain),
            "setup_s": statistics.median(self.setups),
        }

    def digest(self):
        first = [c for c in self.cells if c["pass"] == 0]
        return hashlib.sha256("\n".join(cell_lines(first)).encode()).hexdigest()


def describe_exit(code):
    if code < 0:
        try:
            return "signal %s" % signal.Signals(-code).name
        except ValueError:
            return "signal %d" % -code
    return "code %d" % code


def benchmark_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def manifest_check(outcome):
    """Refuse a run whose engine switches are not all recorded."""
    m = outcome.manifest
    if m is None:
        return
    for var in os.environ:
        if var.startswith("NVFS_") and var not in m.get("env", {}):
            fail("%s is set but missing from the run manifest" % var)
    if not m.get("trace_cache_unset"):
        fail("NVFS_TRACE_CACHE was set for the run")


def print_manifest(outcome, digest):
    m = dict(outcome.manifest or {})
    m.pop("type", None)
    m["git_revision"] = git_revision() or "unavailable (not a git checkout)"
    m["source_sha256"] = digest
    print("manifest: " + json.dumps(m, sort_keys=True))


def benchmark(args):
    check_environment()
    digest = ensure_built()
    spec = benchmark_spec()
    deadline = time.time() + RUN_DEADLINE_S
    traced = args.trace == 1
    trace_file = None
    if traced:
        trace_file = os.path.join(BUILD, "trace-%s-%d.json" % (args.workload, args.seed))
    records, code, usage, stderr = run_runner(
        args.workload, args.seed, args.seconds, trace_file=trace_file,
        setups=1 if traced else 3, deadline=deadline)
    golden = load_golden(args.workload) if args.seed == GOLDEN_SEED else None
    outcome = Outcome(args.workload, records, code, stderr, golden)
    manifest_check(outcome)
    print_manifest(outcome, digest)
    sys.stdout.write(stderr if traced else "")

    if traced:
        wanted = spec["per_layer"]
        got = dict(outcome.summary["metrics"]) if outcome.summary else {}
        if outcome.summary:
            # A jobs=1 pass gives the 1-job number beside the N-job one.
            records, code, _, stderr = run_runner(
                args.workload, args.seed, args.seconds,
                env_extra={"NVFS_JOBS": "1"}, setups=1, passes=1,
                deadline=deadline)
            one = Outcome(args.workload, records, code, stderr, None)
            wall = one.timings().get("wall_s")
            if wall is None:
                outcome.problems.append("jobs=1 pass failed: "
                                        + "; ".join(one.problems[:3]))
            else:
                got["process.wall_s.jobs1"] = wall
    else:
        wanted = spec["end_to_end"]
        got = outcome.timings()
        got["peak_rss_mb"] = usage.ru_maxrss / 1024.0

    for problem in outcome.incorrect + outcome.problems:
        print("problem: " + problem)
    print("output check: %s (%s)" % (
        "passed" if outcome.correct else "FAILED",
        "golden seed %d" % GOLDEN_SEED if golden is not None
        else "cross-checks only; cell digest %s" % outcome.digest()))
    print("%-36s %14.6f %s" % ("fail_share", outcome.failed / outcome.attempted,
                                "ratio"))
    metrics = {}
    for m in wanted:
        if m["name"] in got:
            metrics[m["name"]] = {"value": got[m["name"]], "unit": m["unit"]}
            print("%-36s %14.6f %s" % (m["name"], got[m["name"]], m["unit"]))
        else:
            print("%-36s %14s %s" % (m["name"], "not measured", m["unit"]))
    print(json.dumps({"correct": outcome.correct,
                      "attempted": outcome.attempted,
                      "failed": outcome.failed,
                      "metrics": metrics}))
    return 0


def smoke(workload, env_extra=None):
    records, code, _, stderr = run_runner(workload, GOLDEN_SEED, 1, env_extra=env_extra,
                                          setups=1, passes=1, smoke=True)
    return Outcome(workload, records, code, stderr, None)


def self_test(_args):
    """Tiny-scale smoke of every workload, a jobs=1 vs jobs=N digest
    comparison, and a deliberately flipped golden field that must fail
    and be named."""
    check_environment()
    ensure_built()
    ok = True

    def report(passed, what):
        nonlocal ok
        ok = ok and passed
        print("%s  %s" % ("PASS" if passed else "FAIL", what))

    for workload in WORKLOADS:
        wide = smoke(workload)
        report(wide.correct and wide.cells,
               "%s smoke run: %d cells, outputs checked" % (workload, len(wide.cells)))
        if not wide.correct or not wide.cells:
            for p in wide.problems[:5]:
                print("      " + p)
            continue
        golden = {c["name"]: [tuple(x) for x in c["fields"]] for c in wide.cells}
        narrow = smoke(workload, {"NVFS_JOBS": "1"})
        mismatches = [golden_mismatch(workload, c, golden) for c in narrow.cells]
        report(narrow.correct and not any(mismatches),
               "%s jobs=1 cells equal jobs=%d cells" % (workload, os.cpu_count() or 1))
        victim = wide.cells[len(wide.cells) // 2]
        field, value = golden[victim["name"]][0]
        golden[victim["name"]][0] = (field, value + 1)
        flipped = [golden_mismatch(workload, c, golden) for c in narrow.cells]
        named = [m for m in flipped if m]
        expect = "workload %s cell %s field %s:" % (workload, victim["name"], field)
        report(len(named) == 1 and named[0].startswith(expect),
               "%s flipped golden field is caught and named: %s"
               % (workload, named[0] if named else "nothing caught"))
    return 0 if ok else 1


def write_golden(args):
    """Run each workload at the golden seed under every declared
    differential reference and write its golden only if all agree."""
    check_environment()
    ensure_built()
    variants = [
        ("jobs=%d" % (os.cpu_count() or 1), {}),
        ("jobs=1", {"NVFS_JOBS": "1"}),
        ("extentOps=false", {"NVFS_BLOCK_ENGINE": "legacy"}),
        ("curve engine off", {"NVFS_CURVE_ENGINE": "off"}),
    ]
    status = 0
    for workload in args.workload or WORKLOADS:
        runs = []
        for label, env in variants:
            records, code, _, stderr = run_runner(workload, GOLDEN_SEED, 1,
                                                  env_extra=env, setups=1, passes=1)
            outcome = Outcome(workload, records, code, stderr, None)
            log("%s [%s]: %d cells, %s" % (workload, label, len(outcome.cells),
                                            "outputs checked" if outcome.correct
                                            else "FAILED"))
            runs.append((label, outcome))
        base_label, base = runs[0]
        golden = {c["name"]: [tuple(x) for x in c["fields"]] for c in base.cells}
        problems = []
        for label, outcome in runs:
            if not outcome.correct:
                problems.append("%s: %s" % (label, "; ".join(outcome.problems[:3])))
            for c in outcome.cells:
                m = golden_mismatch(workload, c, golden)
                if m:
                    problems.append("%s vs %s: %s" % (label, base_label, m))
            if len(outcome.cells) != len(base.cells):
                problems.append("%s: %d cells, %s: %d" % (
                    label, len(outcome.cells), base_label, len(base.cells)))
        if problems:
            log("refusing to write the %s golden:\n  %s"
                % (workload, "\n  ".join(problems[:20])))
            status = 1
            continue
        path = os.path.join(GOLDEN_DIR, workload + ".txt")
        os.makedirs(GOLDEN_DIR, exist_ok=True)
        with open(path, "w") as f:
            f.write("# %s golden, seed %d; identical under %s\n"
                    % (workload, GOLDEN_SEED, ", ".join(l for l, _ in variants)))
            f.write("\n".join(cell_lines(base.cells)) + "\n")
        log("wrote " + os.path.relpath(path, ROOT))
    return status


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", action="append", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=GOLDEN_SEED)
    parser.add_argument("--seconds", type=int, default=12)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    parser.add_argument("--write-golden", action="store_true")
    args = parser.parse_args()
    if args.self_test:
        return self_test(args)
    if args.write_golden:
        return write_golden(args)
    if not args.workload or len(args.workload) != 1:
        parser.error("give exactly one --workload")
    args.workload = args.workload[0]
    return benchmark(args)


if __name__ == "__main__":
    sys.exit(main())
