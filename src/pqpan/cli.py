"""Command-line interface.

Four subcommands tie the model together:

* ``estimate``  - handshake energy breakdown for one scheme and link config.
* ``sweep``     - theoretical transfer energies over a config grid, as CSV
  or JSON, optionally compared against the bundled reference table.
* ``fit``       - recover radio currents from a reference table and emit a
  profile/residual report (valid ``--config`` input).
* ``simulate``  - run the deterministic two-party handshake, writing a
  JSON-lines frame trace and an energy-ledger JSON.

Exit codes: 0 success, 2 usage error, 3 model/domain error, 4 I/O error.
Outputs are pure functions of flags and config files.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import stat
import sys

from .config import BACKENDS, ModelConfig, _once, resolve_config
from .energy import AEAD_OVERHEAD_BYTES, comm_energy, fit_radio_currents, pqke_total
from .errors import PqpanError
from .link import ARTIFACT_MAX, airtime
from .reference import SECURITY_LEVELS, load_reference_table, lookup_scheme

DEFAULT_SWEEP_SCHEMES = "ML-KEM-512,ML-KEM-768,ML-KEM-1024"
DEFAULT_SWEEP_ATT = "65,104,204,404"
DEFAULT_SWEEP_LL = "27,69,108,208,251"


class _StdoutClosed(Exception):
    """The reader of stdout has gone, as ``head`` does after its lines."""


def _print(text: str, end: str = "\n") -> None:
    """``print`` to stdout, flushed, so that a reader that has gone shows here
    and not in the flush at interpreter exit."""
    try:
        print(text, end=end, flush=True)
    except BrokenPipeError:
        raise _StdoutClosed from None


def _write(path: str, text: str) -> None:
    """Write ``text`` over the old bytes at ``path``, then cut a regular file at
    its end. Mode ``"w"`` alone truncates to zero length first, which cost 0.7
    to 100 ms a rewrite on ext4, in bursts, against about 0.1 ms for this. The
    inode, mode and links are kept; a FIFO or device is never truncated."""
    with open(path, "w", encoding="utf-8", newline="",
              opener=lambda name, _flags: os.open(name, os.O_WRONLY | os.O_CREAT, 0o666)) as fh:
        fh.write(text)
        if stat.S_ISREG(os.fstat(fh.fileno()).st_mode):
            fh.truncate()


def _checked(parse, ok, expected: str):
    """argparse type: ``parse(text)``, a usage error unless it satisfies ``ok``."""
    def check(text: str):
        try:
            if ok(value := parse(text)):
                return value
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"expected {expected}, got {text!r}")
    return check


def _seed(text: str) -> int:
    """argparse type of ``simulate --seed``; reads the range from sim only when given."""
    from .sim import SEED_MAX, SEED_MIN
    return _checked(int, lambda v: SEED_MIN <= v <= SEED_MAX,
                    "an integer of at most 64 signed bits")(text)


def _add_config_flags(p: argparse.ArgumentParser) -> None:
    every_level = _checked(lambda t: dict.fromkeys(SECURITY_LEVELS, float(t)), bool, "a number")
    p.add_argument("--config", "--profile", dest="config", metavar="PATH",
                   help="JSON config file (falls back to $PQPAN_PROFILE)")
    p.add_argument("--gamma-comm", type=float, metavar="G",
                   help="override the communication calibration factor")
    p.add_argument("--gamma-keygen", type=every_level, metavar="G",
                   help="override the key-generation calibration factor (all levels)")
    p.add_argument("--gamma-decap", type=every_level, metavar="G",
                   help="override the decapsulation calibration factor (all levels)")
    p.add_argument("--ifs-slots", type=int, metavar="N",
                   help="inter-frame gaps charged per data/ack exchange (1 or 2)")


def _add_link_flags(p: argparse.ArgumentParser, require: bool,
                    default_att: int | None = None, default_ll: int | None = None) -> None:
    p.add_argument("--att-mtu", type=int, required=require, default=default_att,
                   help="ATT MTU in bytes (23..517)")
    p.add_argument("--ll-pdu", type=int, required=require, default=default_ll,
                   help="link-layer PDU payload cap in bytes (27..251)")


def _model_config(args) -> ModelConfig:
    """The config file, then each flag whose dest is a config key, on one path;
    a subcommand without the flag reads None."""
    flags = {key: value for key in ("gamma_comm", "gamma_keygen", "gamma_decap", "ifs_slots",
                                    "kem_backend")
             if (value := getattr(args, key, None)) is not None}
    return resolve_config(args.config, flags)


def _round_tree(obj, ndigits=2):
    if isinstance(obj, dict):
        return {k: _round_tree(v, ndigits) for k, v in obj.items()}
    if isinstance(obj, float):
        return round(obj, ndigits)
    return obj


def cmd_estimate(args) -> int:
    cfg = _model_config(args)
    link = cfg.link.replace(att_mtu=args.att_mtu, ll_pdu=args.ll_pdu)
    breakdown = pqke_total(args.scheme, link, cfg.profile, cfg.cycles, cfg.gamma,
                           include_encap=args.include_encap)
    out = {"scheme": lookup_scheme(args.scheme).name,
           "att_mtu": link.att_mtu, "ll_pdu": link.ll_pdu,
           "ifs_slots": link.ifs_slots}
    body = _round_tree(breakdown.as_dict())
    body["comm_share"] = round(breakdown.comm_share, 4)
    out.update(body)
    _print(json.dumps(out, indent=2))
    return 0


def _sweep_rows(cfg: ModelConfig, cells):
    """The transfers of each (scheme, att, ll) cell, by level (none last), name, att, ll."""
    rows = []
    for scheme, att, ll in sorted(((lookup_scheme(name), att, ll) for name, att, ll in cells),
                                  key=lambda c: (c[0].nist_level or 99, c[0].name, *c[1:])):
        link = cfg.link.replace(att_mtu=att, ll_pdu=ll)
        for op, artifact, as_receiver in scheme.transfers():
            budget = airtime(artifact, link)
            e = comm_energy(budget, cfg.profile, as_receiver=as_receiver)
            rows.append({"scheme": scheme.name, "att_mtu": att, "ll_pdu": ll,
                         "op": op, "e_theor_uJ": e})
    return rows


def cmd_sweep(args) -> int:
    if args.table is not None and not (args.reference_grid or args.compare):
        args.error("--table needs --reference-grid or --compare")
    cfg = _model_config(args)
    ref_rows = load_reference_table(args.table) if args.reference_grid or args.compare else ()
    if args.reference_grid:
        cells = {(r.scheme, r.att_mtu, r.ll_pdu) for r in ref_rows}
    else:
        schemes = _once(((lookup_scheme(s).name, s) for s in args.schemes.split(",") if s.strip()),
                        "--schemes: scheme")  # compared after lookup
        if not schemes:
            raise PqpanError("sweep axes must be non-empty")
        cells = [(s, a, l) for s in schemes for a in args.att_mtus for l in args.ll_pdus]
    rows = _sweep_rows(cfg, cells)

    fields = ["scheme", "att_mtu", "ll_pdu", "op", "e_theor_uJ"]
    if args.compare:
        reference = {(r.scheme, r.att_mtu, r.ll_pdu, r.op): r.e_theor_uj for r in ref_rows}
        fields += ["e_ref_uJ", "rel_err_pct"]
        for row in rows:
            ref = reference.get((row["scheme"], row["att_mtu"], row["ll_pdu"], row["op"]))
            row["e_ref_uJ"] = ref
            row["rel_err_pct"] = None if ref is None else (row["e_theor_uJ"] - ref) / ref * 100.0

    if args.format == "json":
        text = json.dumps([_round_tree(r, 3) for r in rows], indent=2) + "\n"
    else:
        sink = io.StringIO()
        writer = csv.DictWriter(sink, fieldnames=fields)
        writer.writeheader()
        for row in rows:
            rec = dict(row)
            rec["e_theor_uJ"] = f"{rec['e_theor_uJ']:.2f}"
            if args.compare:
                rec["e_ref_uJ"] = "" if rec["e_ref_uJ"] is None else f"{rec['e_ref_uJ']:.2f}"
                rec["rel_err_pct"] = ("" if rec["rel_err_pct"] is None
                                      else f"{rec['rel_err_pct']:.3f}")
            writer.writerow(rec)
        text = sink.getvalue()
    if args.out:
        _write(args.out, text)
    else:
        _print(text, end="")
    return 0


def cmd_fit(args) -> int:
    rows = load_reference_table(args.table)
    report = fit_radio_currents(rows).as_dict()
    if args.out:
        _write(args.out, json.dumps(report, indent=2) + "\n")
        summary = {k: report[k] for k in ("ifs_slots", "max_abs_rel_err",
                                          "mean_abs_rel_err", "profile")}
        _print(json.dumps(summary, indent=2))
        print(f"report written to {args.out}", file=sys.stderr)
    else:
        _print(json.dumps(report, indent=2))
    return 0


def cmd_simulate(args) -> int:
    from .sim import run_handshake, send_secured_payload  # only simulate loads sim and kem

    cfg = _model_config(args)
    link = cfg.link.replace(att_mtu=args.att_mtu, ll_pdu=args.ll_pdu)
    result = run_handshake(args.scheme, link, cfg.profile, cfg.gamma, cfg.cycles,
                           seed=args.seed, backend=cfg.kem_backend)
    trace = result.trace
    summary = {
        "scheme": result.peripheral.scheme.name,
        "att_mtu": link.att_mtu, "ll_pdu": link.ll_pdu, "seed": args.seed,
        "backend": cfg.kem_backend,
        "peripheral_phase": result.peripheral.phase.value,
        "central_phase": result.central.phase.value,
        "session_keys_match":
            result.peripheral.session_key.key == result.central.session_key.key,
        "data_frames": trace.data_frame_count(),
        "acks": trace.ack_count(),
        "ledger": result.ledger.as_dict(),
    }

    if args.payload is not None:
        delta, payload_energy = send_secured_payload(result, bytes(args.payload))
        trace = trace + delta
        summary["payload_B"] = args.payload
        summary["payload_energy_uJ"] = payload_energy
        summary["session_total_uJ"] = (result.ledger.peripheral_pqke_total()
                                       + payload_energy)

    _write(args.trace, trace.to_jsonl())
    _write(args.ledger, json.dumps(summary, indent=2) + "\n")
    _print(json.dumps(_round_tree(summary), indent=2))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pqpan",
        description="Energy model and handshake simulator for post-quantum key "
                    "establishment over BLE-class links.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("estimate", help="handshake energy breakdown for one config")
    p.add_argument("--scheme", required=True, help="KEM scheme name, e.g. ml-kem-768")
    _add_link_flags(p, require=True)
    p.add_argument("--include-encap", action="store_true",
                   help="include the remote party's encapsulation energy")
    _add_config_flags(p)
    p.set_defaults(func=cmd_estimate)

    p = sub.add_parser("sweep", help="theoretical transfer energies over a grid")
    int_list = _checked(lambda t: [int(v) for v in t.split(",")], lambda v: len({*v}) == len(v),
                        "comma-separated integers, none repeated")
    p.add_argument("--schemes", default=DEFAULT_SWEEP_SCHEMES,
                   help="comma-separated scheme names")
    p.add_argument("--att-mtus", type=int_list, default=DEFAULT_SWEEP_ATT,
                   help="comma-separated ATT MTU values")
    p.add_argument("--ll-pdus", type=int_list, default=DEFAULT_SWEEP_LL,
                   help="comma-separated LL PDU values")
    p.add_argument("--reference-grid", action="store_true",
                   help="sweep exactly the (scheme, att, ll) cells of the reference table")
    p.add_argument("--compare", action="store_true",
                   help="join the reference energies and report relative error")
    p.add_argument("--table", default=None, metavar="PATH",
                   help="reference table CSV of --reference-grid and --compare "
                        "(defaults to the bundled copy)")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--out", default=None, metavar="PATH",
                   help="output file (defaults to stdout)")
    _add_config_flags(p)
    p.set_defaults(func=cmd_sweep, error=p.error)

    p = sub.add_parser("fit", help="recover radio currents from a reference table")
    p.add_argument("--table", default=None, metavar="PATH",
                   help="reference table CSV (defaults to the bundled copy)")
    p.add_argument("--out", default=None, metavar="PATH",
                   help="write the full report JSON here (summary goes to stdout)")
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("simulate", help="run the deterministic two-party handshake")
    p.add_argument("--scheme", required=True)
    p.add_argument("--seed", type=_seed, default=0)
    _add_link_flags(p, require=False, default_att=404, default_ll=251)
    payload_max = ARTIFACT_MAX - AEAD_OVERHEAD_BYTES  # the sealed payload is one artifact
    p.add_argument("--payload", type=_checked(int, lambda v: 0 <= v <= payload_max,
                                              f"a byte count in [0, {payload_max}]"),
                   default=None, metavar="BYTES",
                   help="also send one secured payload and print the session total")
    p.add_argument("--backend", dest="kem_backend", choices=BACKENDS, default=None)
    p.add_argument("--trace", default="pqpan_trace.jsonl", metavar="PATH",
                   help="JSON-lines frame trace output")
    p.add_argument("--ledger", default="pqpan_ledger.json", metavar="PATH",
                   help="energy ledger JSON output")
    _add_config_flags(p)
    p.set_defaults(func=cmd_simulate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        try:
            args = parser.parse_args(argv)
            return args.func(args)
        except SystemExit as exc:  # argparse exits 2 on usage errors, 0 on --help
            _print("", end="")  # flushes what argparse printed, such as the help
            return int(exc.code or 0)
    except PqpanError as exc:
        print(f"pqpan: error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"pqpan: i/o error: {exc}", file=sys.stderr)
        return 4
    except _StdoutClosed:
        # Nobody reads what is left, so end quietly; the flush at exit then
        # writes what is still buffered to the null device.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 0


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
