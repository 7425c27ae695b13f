#!/usr/bin/env python3
"""CI perf gate over bench_engine_throughput's JSON output.

Usage: check_perf_gate.py <bench.json> [<bench.json> ...] <min_backend_speedup>

Each JSON file is one run of the benchmark; the gate reads the median
over the runs, so one slow run on a shared host does not trip it.
Fails (exit 1) when the median of the bytecode backend's
warm-dispatch speedup over the interpreter falls below the threshold,
when any run reports a bitwise check as false (the two backends, the
batched-vs-sequential requests of experiment [5] or a fused-vs-chain
graph of experiment [10]), or when the median native/bytecode warm
req/s ratio falls below 1 on any op family of the "tiers" object
(experiment [11]). The median native compile count and compile
milliseconds over the runs are printed too, informational only, so
the tier-up cost trend shows in CI logs.
Malformed input — an unreadable or syntactically invalid JSON file,
missing fields, or nonsense measurements (non-positive timings) in
any file — exits 2 with a diagnostic, so CI can tell "the gate
tripped" (1) from "the gate never ran" (2). The JSON itself is
uploaded as a workflow artifact so the speedup trajectory (and the
batched-throughput numbers, when present) is trackable across
commits. The "warm_latency" object (experiment [9]) is printed as an
informational per-op p50/p95/p99 trajectory, and the "tiers" object
(experiment [11]) as an interpreter -> bytecode -> native req/s
trajectory per op family — malformed fields in either exit 2 like any
other bad input.
"""

import json
import statistics
import sys


class BadInput(Exception):
    """Malformed input: distinct from a genuine gate failure."""


def read_run(path: str):
    """Validate one run's JSON and print its trajectory lines.

    Returns (backend speedup, [names of the bitwise checks that read
    false], {op: native req/s over bytecode req/s}, (native kernel
    compiles, native compile ms) or None without a "tiers" object);
    raises BadInput on malformed input.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as err:
        raise BadInput(f"cannot read {path}: {err}")
    except json.JSONDecodeError as err:
        raise BadInput(f"{path} is not valid JSON: {err}")
    if not isinstance(data, dict):
        raise BadInput(f"{path} does not hold a JSON object")

    try:
        interpreter_ms = float(data["interpreter_warm_ms"])
        bytecode_ms = float(data["bytecode_warm_ms"])
        speedup = float(data["backend_speedup"])
        identical = bool(data["bitwise_identical"])
    except KeyError as err:
        raise BadInput(f"{path} is missing field {err}")
    except (TypeError, ValueError) as err:
        raise BadInput(f"{path} holds a non-numeric field: {err}")
    if bytecode_ms <= 0.0 or interpreter_ms <= 0.0:
        raise BadInput(
            f"non-positive timings (interpreter {interpreter_ms}, "
            f"bytecode {bytecode_ms}): the benchmark did not measure"
        )

    print(
        f"perf gate: interpreter {interpreter_ms:.2f} ms -> "
        f"bytecode {bytecode_ms:.2f} ms = {speedup:.2f}x, "
        f"bitwise_identical={identical}"
    )
    # Every bitwise check the benchmark runs is gated, not just
    # printed: a batch or a fused graph that diverged is a wrong
    # result, and a run that stopped reporting a check is bad input,
    # so a dropped check cannot pass unnoticed.
    checks = ["bitwise_identical", "batch_bitwise_identical"] + [
        f"graph_{model}_bitwise_identical"
        for model in ("attention", "graphsage")
    ]
    diverged = []
    for key in checks:
        if key not in data:
            raise BadInput(f"{path} is missing field '{key}'")
        if not isinstance(data[key], bool):
            raise BadInput(f"{path} field {key} is not a JSON boolean")
        if not data[key]:
            diverged.append(key)
    # Batched-throughput trajectory (informational, not gated) — but
    # malformed fields are still bad input, not a tripped gate.
    if "batched_req_per_s" in data:
        try:
            sequential_rps = float(
                data.get("sequential_req_per_s", 0.0)
            )
            batched_rps = float(data["batched_req_per_s"])
        except (TypeError, ValueError) as err:
            raise BadInput(
                f"{path} holds a non-numeric batched field: {err}"
            )
        print(
            f"batched dispatch: "
            f"{data.get('batch_requests', '?')} in flight, "
            f"{sequential_rps:.1f} req/s sequential -> "
            f"{batched_rps:.1f} req/s batched, "
            f"bitwise_identical="
            f"{data.get('batch_bitwise_identical', 'n/a')}"
        )
    # Graph-compilation trajectory (experiment [10], informational —
    # fused whole-model pipelines vs per-node chains). Malformed
    # fields are still bad input, not a tripped gate.
    for model in ("attention", "graphsage"):
        key = f"graph_{model}_fused_req_per_s"
        if key not in data:
            continue
        try:
            chain_rps = float(
                data.get(f"graph_{model}_chain_req_per_s", 0.0)
            )
            graph_fused_rps = float(data[key])
            graph_speedup = float(
                data.get(f"graph_{model}_speedup", 0.0)
            )
        except (TypeError, ValueError) as err:
            raise BadInput(
                f"{path} holds a non-numeric graph field: {err}"
            )
        print(
            f"graph compilation [{model}]: "
            f"{chain_rps:.1f} req/s chain -> "
            f"{graph_fused_rps:.1f} req/s fused "
            f"({graph_speedup:.2f}x), "
            f"bitwise_identical="
            f"{data.get(f'graph_{model}_bitwise_identical', 'n/a')}"
        )
    # Static-verification cost at build time (informational, not
    # gated): kernels proven, failures, and total prover milliseconds
    # for the warm-latency engine's artifacts. Zero kernels means the
    # verifier was off for this build/env combination.
    if "verify" in data:
        verify = data["verify"]
        if not isinstance(verify, dict):
            raise BadInput(f"{path} verify is not a JSON object")
        try:
            verified = int(verify["verified_kernels"])
            failures = int(verify["verify_failures"])
            verify_ms = float(verify["verify_ms"])
        except (TypeError, KeyError, ValueError) as err:
            raise BadInput(f"{path} verify is malformed: {err}")
        if verified < 0 or failures < 0 or verify_ms < 0.0:
            raise BadInput(
                f"{path} verify holds negative counters "
                f"({verified} kernels, {failures} failures, "
                f"{verify_ms} ms)"
            )
        if verified > 0:
            print(
                f"static verification: {verified} kernel(s) proven "
                f"in {verify_ms:.2f} ms "
                f"({verify_ms / verified:.2f} ms/kernel), "
                f"{failures} failure(s)"
            )
        else:
            print(
                "static verification: off for this build "
                "(0 kernels verified)"
            )
    # Tiered-execution trajectory (experiment [11]): warm req/s per op
    # family for interpreter -> bytecode -> native, plus the native
    # tier's one-time compile cost. main() gates the median
    # native/bytecode ratio over the runs: a native tier slower than
    # bytecode on any family does not earn its code. Malformed fields
    # are still bad input, not a tripped gate.
    native_ratios = {}
    native_cost = None
    if "tiers" in data:
        tiers = data["tiers"]
        if not isinstance(tiers, dict):
            raise BadInput(f"{path} tiers is not a JSON object")
        for op in sorted(tiers):
            row = tiers[op]
            try:
                interp_rps = float(row["interpreter_req_per_s"])
                bytecode_rps = float(row["bytecode_req_per_s"])
                native_rps = float(row["native_req_per_s"])
            except (TypeError, KeyError, ValueError) as err:
                raise BadInput(
                    f"{path} tiers[{op!r}] is malformed: {err}"
                )
            if min(interp_rps, bytecode_rps, native_rps) <= 0.0:
                raise BadInput(
                    f"{path} tiers[{op!r}] holds a non-positive "
                    f"rate (interpreter {interp_rps}, bytecode "
                    f"{bytecode_rps}, native {native_rps})"
                )
            native_x = (
                f" ({native_rps / interp_rps:.2f}x interpreter)"
                if interp_rps > 0
                else ""
            )
            print(
                f"tiered execution [{op}]: "
                f"{interp_rps:.1f} req/s interpreter -> "
                f"{bytecode_rps:.1f} req/s bytecode -> "
                f"{native_rps:.1f} req/s native{native_x}, "
                f"bitwise_identical="
                f"{row.get('bitwise_identical', 'n/a')}"
            )
            native_ratios[op] = native_rps / bytecode_rps
        try:
            compiles = int(data.get("native_compiles", 0))
            disk_hits = int(data.get("native_disk_hits", 0))
            compile_ms = float(data.get("native_compile_ms", 0.0))
        except (TypeError, ValueError) as err:
            raise BadInput(
                f"{path} holds a malformed native counter: {err}"
            )
        if compiles < 0 or disk_hits < 0 or compile_ms < 0.0:
            raise BadInput(
                f"{path} holds negative native counters "
                f"({compiles} compiles, {disk_hits} disk hits, "
                f"{compile_ms} ms)"
            )
        print(
            f"native tier: {compiles} kernel compile(s) in "
            f"{compile_ms:.1f} ms, {disk_hits} disk hit(s)"
        )
        native_cost = (compiles, compile_ms)
    # Warm-dispatch latency percentiles per op kind (experiment [9],
    # informational — the p50/p99 trajectory is tracked across
    # commits, no gate). Malformed histogram fields are still bad
    # input, not a tripped gate.
    if "warm_latency" in data:
        warm = data["warm_latency"]
        if not isinstance(warm, dict):
            raise BadInput(
                f"{path} warm_latency is not a JSON object"
            )
        for op in sorted(warm):
            hist = warm[op]
            try:
                count = int(hist["count"])
                p50 = float(hist["p50_ms"])
                p95 = float(hist["p95_ms"])
                p99 = float(hist["p99_ms"])
            except (TypeError, KeyError, ValueError) as err:
                raise BadInput(
                    f"{path} warm_latency[{op!r}] is malformed: {err}"
                )
            if count <= 0:
                raise BadInput(
                    f"{path} warm_latency[{op!r}] has no samples "
                    f"(count {count})"
                )
            if min(p50, p95, p99) < 0.0:
                raise BadInput(
                    f"{path} warm_latency[{op!r}] holds a negative "
                    f"latency (p50 {p50}, p95 {p95}, p99 {p99})"
                )
            if not p50 <= p95 <= p99:
                raise BadInput(
                    f"{path} warm_latency[{op!r}] percentiles are "
                    f"not monotone (p50 {p50}, p95 {p95}, p99 {p99})"
                )
            print(
                f"warm latency [{op}]: p50 {p50:.3f} ms / "
                f"p95 {p95:.3f} ms / p99 {p99:.3f} ms "
                f"({count} samples)"
            )
    return speedup, diverged, native_ratios, native_cost


def main() -> int:
    if len(sys.argv) < 3:
        print(__doc__, file=sys.stderr)
        return 2
    paths = sys.argv[1:-1]
    try:
        threshold = float(sys.argv[-1])
    except ValueError:
        print(
            f"perf gate: bad input: threshold {sys.argv[-1]!r} is not "
            f"a number",
            file=sys.stderr,
        )
        return 2
    speedups = []
    diverged = []
    ratios = {}
    native_costs = []
    for path in paths:
        print(f"== {path}")
        try:
            speedup, failed_checks, native_ratios, native_cost = read_run(
                path
            )
        except BadInput as err:
            print(f"perf gate: bad input: {err}", file=sys.stderr)
            return 2
        speedups.append(speedup)
        if failed_checks:
            diverged.append(f"{path} ({', '.join(failed_checks)})")
        for op, ratio in native_ratios.items():
            ratios.setdefault(op, []).append(ratio)
        if native_cost is not None:
            native_costs.append(native_cost)

    speedup = statistics.median(speedups)
    print(
        f"perf gate: median backend speedup {speedup:.2f}x over "
        f"{len(speedups)} run(s) (threshold {threshold:.1f}x)"
    )
    # Tier-up cost trend (informational, not gated).
    if native_costs:
        compiles = statistics.median(c for c, _ in native_costs)
        compile_ms = statistics.median(ms for _, ms in native_costs)
        print(
            f"perf gate: median native_compiles {compiles:g}, "
            f"native_compile_ms {compile_ms:.1f} over "
            f"{len(native_costs)} run(s) (informational)"
        )
    native_losses = []
    for op in sorted(ratios):
        ratio = statistics.median(ratios[op])
        print(f"perf gate: median native/bytecode [{op}] {ratio:.2f}x")
        if ratio < 1.0:
            native_losses.append(f"{op} ({ratio:.2f}x)")
    if diverged:
        print(
            "FAIL: bitwise checks failed in " + ", ".join(diverged),
            file=sys.stderr,
        )
        return 1
    if speedup < threshold:
        print(
            f"FAIL: median backend speedup {speedup:.2f}x below the "
            f"{threshold:.1f}x gate",
            file=sys.stderr,
        )
        return 1
    if native_losses:
        print(
            "FAIL: native tier slower than bytecode on "
            + ", ".join(native_losses),
            file=sys.stderr,
        )
        return 1
    print("perf gate passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
