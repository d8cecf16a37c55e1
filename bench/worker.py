"""One benchmark run of one workload, in a fresh single-threaded process.

    python3 bench/worker.py --workload design_sweep --seed 1 --seconds 10 --mode run

The worker sets up (imports, first data load, seeded input generation,
warm-up), prints ``READY``, then drives a closed loop: one client, the next
op starts when the previous one ends. It checks every op's output against
the independent oracle and prints one JSON line of results.

Modes: ``setup`` exits right after ``READY`` (set-up timing only); ``run``
measures for ``--seconds`` with tracing off; ``trace`` alternates untraced
and traced blocks over the same inputs and reports per-layer span
statistics of the traced blocks.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
import traceback
from array import array
from pathlib import Path

import oracle
import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
KEMS = tuple(oracle.KEMS)
SECURITY = ("none", "ecdh", "kem")
CLI_KINDS = ("estimate", "sweep", "fit", "simulate")
#: Cold ``fit`` children run in a traced cli_cold run to price the fit's share.
COLD_FIT_SAMPLES = 3
#: Untraced/traced block pairs in a traced run; alternating them keeps slow
#: periods of a shared machine out of the tracing-overhead figure.
TRACE_BLOCK_PAIRS = 4
CHILD_TIMEOUT_S = 60
MAX_LOGGED_FAILURES = 3


class GuardError(RuntimeError):
    """The load generator had more than one child or thread in flight."""


def check_single_flight() -> None:
    threads = threading.active_count()
    tasks = len(os.listdir("/proc/self/task")) if os.path.isdir("/proc/self/task") else 1
    if threads != 1 or tasks != 1:
        raise GuardError(f"load generator has {threads} Python / {tasks} OS threads")


def random_cell(rng: random.Random) -> tuple:
    """(scheme, att_mtu, ll_pdu, ifs_slots, payload) drawn from the design grid."""
    return (rng.choice(KEMS), rng.randint(23, 517), rng.randint(27, 251),
            rng.choice((1, 2)), rng.randint(0, 4096))


def import_pqpan():
    sys.path.insert(0, str(SRC))
    import pqpan

    if not Path(pqpan.__file__).resolve().is_relative_to(SRC.resolve()):
        raise ImportError(f"pqpan imported from {pqpan.__file__}, not {SRC}")
    return pqpan


class DesignSweep:
    """``pqke_total`` plus ``session_energy`` on one random design cell."""

    n_inputs = 16384
    warmup = 64

    def setup(self, rng: random.Random) -> None:
        self.pq = import_pqpan()
        self.p = oracle.model_params()
        self.inputs = []
        for _ in range(self.n_inputs):
            cell = random_cell(rng)
            security = rng.choice(SECURITY)
            self.inputs.append((*cell, rng.random() < 0.5,
                                cell[0] if security == "kem" else security))

    def run(self, k: int):
        scheme, att, ll, slots, payload, encap, security = self.inputs[k]
        cfg = self.pq.LinkConfig(att_mtu=att, ll_pdu=ll, ifs_slots=slots)
        return (self.pq.pqke_total(scheme, cfg, include_encap=encap),
                self.pq.session_energy(security, payload, cfg))

    def check(self, k: int, out) -> str | None:
        scheme, att, ll, slots, payload, encap, security = self.inputs[k]
        b, session = out
        exp = oracle.handshake(scheme, att, ll, slots, self.p, encap)
        raw, g = exp["raw"], self.p["gamma_comm"]
        pairs = {
            "e_notify_pk": (b.e_notify_pk, raw["notify_pk"]),
            "e_write_ct": (b.e_write_ct, raw["write_ct"]),
            "adj_notify_pk": (b.adj_notify_pk, g * raw["notify_pk"]),
            "adj_write_ct": (b.adj_write_ct, g * raw["write_ct"]),
            "e_keygen": (b.e_keygen, raw["keygen"]),
            "e_decap": (b.e_decap, raw["decap"]),
            "e_total": (b.e_total, exp["total"]),
            "session": (session, oracle.session(security, payload, att, ll, slots, self.p)),
        }
        if encap:
            pairs["e_encap"] = (b.e_encap, raw["encap"])
        for name, (got, want) in pairs.items():
            if not oracle.close(got, want):
                return f"{name}: model {got!r} != oracle {want!r}"
        parts = b.adj_keygen + b.adj_decap + b.adj_notify_pk + b.adj_write_ct
        if encap:
            parts += b.adj_encap
        if not oracle.close(b.e_total, parts, 1e-12):
            return f"e_total {b.e_total!r} != sum of parts {parts!r}"
        if not 0.0 < b.comm_share < 1.0:
            return f"comm_share {b.comm_share!r} outside (0, 1)"
        return None

    def frames(self, k: int, out) -> int:
        return 0


class HandshakeSim:
    """``run_handshake`` + ``send_secured_payload`` + ``to_jsonl`` of both traces."""

    n_inputs = 8192
    warmup = 16

    def setup(self, rng: random.Random) -> None:
        self.pq = import_pqpan()
        self.p = oracle.model_params()
        self.inputs = [(*random_cell(rng), rng.randrange(2 ** 62))
                       for _ in range(self.n_inputs)]

    def run(self, k: int):
        scheme, att, ll, slots, payload, seed = self.inputs[k]
        cfg = self.pq.LinkConfig(att_mtu=att, ll_pdu=ll, ifs_slots=slots)
        hs = self.pq.run_handshake(scheme, cfg, seed=seed)
        delta, e_payload = self.pq.send_secured_payload(hs, bytes(payload))
        return hs, delta, e_payload, hs.trace.to_jsonl(), delta.to_jsonl()

    def check(self, k: int, out) -> str | None:
        scheme, att, ll, slots, payload, _ = self.inputs[k]
        hs, delta, e_payload, jsonl_hs, jsonl_delta = out
        phases = (hs.peripheral.phase.value, hs.central.phase.value)
        if phases != ("Established", "Established"):
            return f"phases {phases}"
        if hs.peripheral.session_key.key != hs.central.session_key.key:
            return "session keys differ"
        pk, ct, _ = oracle.KEMS[scheme]
        artifact = payload + oracle.AEAD_OVERHEAD
        for op, size, records in (("Notify_PK", pk, hs.trace.records),
                                  ("Write_CT", ct, hs.trace.records),
                                  ("Payload", artifact, delta.records)):
            n_ll = oracle.frame_counts(size, att, ll)[1]
            data = sum(1 for r in records if r.op == op and not r.is_ack)
            acks = sum(1 for r in records if r.op == op and r.is_ack)
            if data != n_ll or acks != n_ll:
                return f"{op}: {data} data / {acks} acks, oracle {n_ll}"
        g = self.p["gamma_comm"]

        def comm(size, receiver):
            return g * oracle.comm_uj(size, att, ll, slots, self.p, receiver)

        terms = {
            "peripheral.notify_pk": (hs.ledger.peripheral["notify_pk"], comm(pk, False)),
            "peripheral.write_ct": (hs.ledger.peripheral["write_ct"], comm(ct, True)),
            "central.notify_pk": (hs.ledger.central["notify_pk"], comm(pk, True)),
            "central.write_ct": (hs.ledger.central["write_ct"], comm(ct, False)),
            "payload": (e_payload, comm(artifact, False)),
        }
        for name, (got, want) in terms.items():
            if not oracle.close(got, want):
                return f"ledger {name}: {got!r} != oracle {want!r}"
        if (jsonl_hs.count("\n") != len(hs.trace.records)
                or jsonl_delta.count("\n") != len(delta.records)):
            return "JSONL line count differs from record count"
        return None

    def frames(self, k: int, out) -> int:
        return len(out[0].trace.records) + len(out[1].records)


class CliCold:
    """``python -m pqpan`` as a fresh child per op, one at a time."""

    n_inputs = 512
    warmup = 0
    work: Path | None = None

    def setup(self, rng: random.Random) -> None:
        self.env = dict(os.environ)
        self.in_flight = 0
        (ROOT / ".bench_work").mkdir(exist_ok=True)
        self.work = Path(tempfile.mkdtemp(prefix="cli_", dir=ROOT / ".bench_work"))
        rotation = rng.sample(CLI_KINDS, len(CLI_KINDS))
        self.inputs = []
        for i in range(self.n_inputs):
            kind = rotation[i % len(rotation)]
            scheme, att, ll, slots, payload = random_cell(rng)
            if kind == "estimate":
                argv = ["estimate", "--scheme", scheme, "--att-mtu", str(att),
                        "--ll-pdu", str(ll), "--ifs-slots", str(slots)]
            elif kind == "sweep":
                argv = ["sweep", "--reference-grid", "--compare"]
            elif kind == "fit":
                argv = ["fit", "--out", str(self.work / "fit.json")]
            else:
                argv = ["simulate", "--scheme", scheme, "--att-mtu", str(att),
                        "--ll-pdu", str(ll), "--seed", str(rng.randrange(2 ** 31)),
                        "--payload", str(payload),
                        "--trace", str(self.work / "trace.jsonl"),
                        "--ledger", str(self.work / "ledger.json")]
            self.inputs.append((kind, argv, (scheme, att, ll, slots)))
        # Warm-up child: imports the package cold (filling the file cache and
        # byte-code) and hands back the calibration inputs the oracle needs.
        rc, out, err = self._child([str(HERE / "oracle.py")])
        if rc != 0:
            raise RuntimeError(f"warm-up child failed: {err}")
        self.p = json.loads(out)

    def close(self) -> None:
        if self.work is not None:
            shutil.rmtree(self.work, ignore_errors=True)
            with contextlib.suppress(OSError):
                self.work.parent.rmdir()

    def _child(self, args: list[str]) -> tuple[int, str, str]:
        if self.in_flight:
            raise GuardError("a second child would be in flight")
        self.in_flight += 1
        try:
            proc = subprocess.run([sys.executable, *args], env=self.env, cwd=ROOT,
                                  capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
        finally:
            self.in_flight -= 1
        return proc.returncode, proc.stdout, proc.stderr

    def run(self, k: int):
        return self._child(["-m", "pqpan", *self.inputs[k][1]])

    def run_in_process(self, k: int):
        """Replay the same argv through ``pqpan.cli.main`` (traced runs)."""
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = self.cli.main(list(self.inputs[k][1]))
        return rc, out.getvalue(), err.getvalue()

    def check(self, k: int, out) -> str | None:
        kind, _, (scheme, att, ll, slots) = self.inputs[k]
        rc, stdout, stderr = out
        if rc != 0 or "Traceback" in stderr:
            return f"{kind}: exit {rc}, stderr {stderr[-300:]!r}"
        try:
            if kind == "sweep":
                rows = stdout.splitlines()[1:]
                worst = max(abs(float(r.rsplit(",", 1)[1])) for r in rows)
                if len(rows) != 48 or worst > 2.0:
                    return f"sweep: {len(rows)} rows, max |rel_err_pct| {worst}"
                return None
            doc = json.loads(stdout)
        except (ValueError, IndexError) as exc:
            return f"{kind}: unparsable stdout ({exc})"
        if kind == "estimate":
            want = oracle.handshake(scheme, att, ll, slots, self.p)["total"]
            if abs(doc["total_uJ"] - want) > 0.005 + oracle.REL_TOL * want:
                return f"estimate: total_uJ {doc['total_uJ']} != oracle {want:.4f}"
        elif kind == "fit":
            if not doc["max_abs_rel_err"] <= 0.02:
                return f"fit: max_abs_rel_err {doc['max_abs_rel_err']}"
        elif not doc["session_keys_match"]:
            return "simulate: session keys differ"
        return None

    def frames(self, k: int, out) -> int:
        return 0


WORKLOADS = {"design_sweep": DesignSweep, "handshake_sim": HandshakeSim,
             "cli_cold": CliCold}


def closed_loop(wl, run, seconds: float, tracer: tracing.Tracer | None = None,
                start: int = 0) -> dict:
    """Drive ``run`` over the inputs from ``start`` for ``seconds``; one op at a time."""
    lat_ns = array("q")  # compact, so the load generator adds little to peak RSS
    kinds: list[str] = []
    failed = frames = 0
    n = len(wl.inputs)
    check_single_flight()
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        k = (start + len(lat_ns)) % n
        t0 = time.perf_counter_ns()
        try:
            out = tracer.run_op(run, k) if tracer else run(k)
            error = None
        except GuardError:
            raise
        except Exception:
            error = traceback.format_exc(limit=4)
        lat_ns.append(time.perf_counter_ns() - t0)
        if error is None:
            error = wl.check(k, out)
        if error is None:
            frames += wl.frames(k, out)
        else:
            failed += 1
            if failed <= MAX_LOGGED_FAILURES:
                print(f"op {k} failed: {error}", file=sys.stderr)
        if isinstance(wl, CliCold):
            kinds.append(wl.inputs[k][0])
    check_single_flight()
    return {"lat_ns": lat_ns, "kinds": kinds, "failed": failed, "frames": frames}


def percentile(sorted_ms: list[float], q: float) -> float:
    """Linear-interpolated percentile ``q`` (0..100) of sorted samples."""
    pos = (len(sorted_ms) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(sorted_ms) - 1)
    return sorted_ms[lo] + (sorted_ms[hi] - sorted_ms[lo]) * (pos - lo)


def summarize(phase: dict) -> dict:
    ms = sorted(t / 1e6 for t in phase["lat_ns"])
    busy_s = sum(phase["lat_ns"]) / 1e9
    out = {
        "attempted": len(ms), "failed": phase["failed"],
        "ops_per_s": len(ms) / busy_s,
        "op_p50_ms": percentile(ms, 50), "op_p90_ms": percentile(ms, 90),
        "op_p99_ms": percentile(ms, 99),
    }
    if phase["frames"]:
        out["frames_per_s"] = phase["frames"] / busy_s
    by_kind: dict[str, list[float]] = {}
    for kind, t in zip(phase["kinds"], phase["lat_ns"]):
        by_kind.setdefault(kind, []).append(t / 1e6)
    for kind, values in by_kind.items():
        out[f"cli.{kind}_ms"] = statistics.median(values)
        out[f"cli.{kind}_samples"] = len(values)
    return out


def peak_rss_mb(wl) -> float:
    who = resource.RUSAGE_CHILDREN if isinstance(wl, CliCold) else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def traced_run(wl, run, seconds: float) -> dict:
    """Alternate untraced and traced blocks; per-layer metrics of the traced ones.

    Both blocks of a pair start at the same input, so they time the same ops.
    """
    tracer = tracing.Tracer()
    plain, traced = [], []
    block_s = seconds / (2 * TRACE_BLOCK_PAIRS)
    for _ in range(TRACE_BLOCK_PAIRS):
        start = sum(len(b["lat_ns"]) for b in plain)
        plain.append(closed_loop(wl, run, block_s, start=start))
        restore = tracing.install(tracer)
        try:
            traced.append(closed_loop(wl, run, block_s, tracer, start=start))
        finally:
            restore()
    merged = {key: [x for b in traced for x in b[key]] for key in ("lat_ns", "kinds")}
    layers = layer_metrics(tracer, merged, wl)

    def ns_per_op(blocks):
        return (sum(sum(b["lat_ns"]) for b in blocks)
                / sum(len(b["lat_ns"]) for b in blocks))

    layers["trace.overhead_frac"] = ns_per_op(traced) / ns_per_op(plain) - 1.0
    blocks = plain + traced
    return {"attempted": sum(len(b["lat_ns"]) for b in blocks),
            "failed": sum(b["failed"] for b in blocks), "layers": layers}


def layer_metrics(tracer: tracing.Tracer, traced: dict, wl) -> dict:
    """Per-op span statistics of the traced blocks, keyed by metric name."""
    ops = len(traced["lat_ns"])
    out: dict[str, float] = {}
    for name, (calls, self_ns) in tracer.layer_stats().items():
        out[f"{name}.calls"] = calls / ops
        out[f"{name}.self_ms"] = self_ns / 1e6 / ops
    counts = tracer.counters
    out["link.frames_built"] = counts.get("link.frames_built", 0)
    out["link.frames_per_eval"] = counts.get("link.frames_built", 0) / ops
    out["sim.trace_records"] = counts.get("sim.trace_records", 0) / ops
    out["kem.bytes_out"] = counts.get("kem.bytes_out", 0) / ops
    if isinstance(wl, CliCold):
        fits = traced["kinds"].count("fit")
        fit_k = next(k for k, item in enumerate(wl.inputs) if item[0] == "fit")
        cold_ms = []
        for _ in range(COLD_FIT_SAMPLES):
            t0 = time.perf_counter_ns()
            rc, _, err = wl.run(fit_k)
            cold_ms.append((time.perf_counter_ns() - t0) / 1e6)
            if rc != 0:
                raise RuntimeError(f"cold fit failed: {err}")
        fit_ms = tracer.total_ns("energy.fit_radio_currents") / 1e6 / max(fits, 1)
        out["energy.fit_radio_currents.share_of_cli_fit"] = fit_ms / statistics.median(cold_ms)
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", choices=("setup", "run", "trace"), default="run")
    args = ap.parse_args(argv)

    wl = WORKLOADS[args.workload]()
    try:
        wl.setup(random.Random(f"{args.workload}:{args.seed}"))
        run, warmup = wl.run, wl.warmup
        if args.mode == "trace" and isinstance(wl, CliCold):
            # Replay in-process: the first op of each kind pays its imports.
            import_pqpan()
            wl.cli = importlib.import_module("pqpan.cli")
            run, warmup = wl.run_in_process, len(CLI_KINDS)
        for k in range(warmup):
            # An op that fails here fails again, and is counted, when timed.
            with contextlib.suppress(Exception):
                run(k)
        print("READY", flush=True)
        if args.mode == "setup":
            return 0

        if args.mode == "run":
            result = summarize(closed_loop(wl, run, args.seconds))
            result["peak_rss_mb"] = peak_rss_mb(wl)
        else:
            result = traced_run(wl, run, args.seconds)
        print(json.dumps(result))
        return 0
    finally:
        if isinstance(wl, CliCold):
            wl.close()


if __name__ == "__main__":
    sys.exit(main())
