"""Command-line entry point.

Subcommands: aggregate, convert, stats, calibrate, bench, demo, fuse.
Exit codes: 0 success, 1 usage error, 2 I/O error, 3 data/shape error,
4 property-check failure (stats/bench assertions).

Every command takes ``--config PATH`` pointing at a flat key=value file
(# comments allowed); explicit flags win over config values. All
randomness flows from one ``--seed`` through numpy's PCG64 generator, so
equal seeds give byte-identical outputs.
"""

from __future__ import annotations

import argparse
import csv
import math
import sys
import time
from pathlib import Path

import numpy as np

from . import analysis, demo, fusion, modules
from ._parallel import block_rows
from .errors import DataError, IoFailure, TlcError
from .integral import (
    PointwiseMap,
    brute_force_local_mean,
    local_aggregate,
    local_max,
    local_mean_var,
    strided_local_mean,
)
from .tensor import FeatureMap, WindowSpec, _write_rows, psnr, read_tensor, write_tensor

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_IO = 2
EXIT_DATA = 3
EXIT_PROPERTY = 4


class UsageError(Exception):
    pass


class PropertyCheckFailure(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _fmt(v) -> str:
    if isinstance(v, float):
        if math.isinf(v):
            return "inf" if v > 0 else "-inf"
        return format(v, ".12g")
    return str(v)


def _write_csv(path, header, rows):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for row in rows:
            w.writerow([_fmt(v) for v in row])


def _load_config(path) -> dict[str, str]:
    cfg = {}
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise IoFailure(f"cannot read config {path}: {exc}") from exc
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise UsageError(f"{path}:{lineno}: expected key=value")
        key, value = line.split("=", 1)
        cfg[key.strip()] = value.strip()
    return cfg


def _switch(s: str) -> bool:
    if s not in ("0", "1"):
        raise ValueError(f"expected 0 or 1, got {s!r}")
    return s == "1"


_CONVERTERS = {
    "k": lambda s: [int(t) for t in s.replace(",", " ").split()],
    "stride": lambda s: [int(t) for t in s.replace(",", " ").split()],
    "seed": int,
    "n": int,
    "r": int,
    "bins": int,
    "reps": int,
    "groups": int,
    "temperature": float,
    "calib": lambda s: [int(t) for t in s.replace(",", " ").split()],
    "brute_force": _switch,
}


def _apply_config(args: argparse.Namespace, defaults: dict):
    """Fill unset flags from the config file, then from hard defaults."""
    cfg = _load_config(args.config) if getattr(args, "config", None) else {}
    for key, raw in cfg.items():
        dest = key.replace(".", "_").replace("-", "_")
        if not hasattr(args, dest):
            raise UsageError(f"unknown config key {key!r}")
        if getattr(args, dest) is None:
            conv = _CONVERTERS.get(dest, str)
            try:
                setattr(args, dest, conv(raw))
            except ValueError as exc:
                raise UsageError(f"config key {key!r}: {exc}") from exc
    for dest, value in defaults.items():
        if getattr(args, dest) is None:
            setattr(args, dest, value)


def _window(args) -> WindowSpec:
    k = args.k
    if len(k) != 2:
        raise UsageError("--k takes two integers")
    try:
        return WindowSpec(k[0], k[1])
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


# --- params manifests --------------------------------------------------------


def _manifest_tensor(manifest: dict, key: str, base: Path) -> np.ndarray:
    if key not in manifest:
        raise DataError(f"params manifest missing key {key!r}")
    return read_tensor(base / manifest[key]).data


def load_se_params(manifest: dict, base: Path) -> modules.SeParams:
    # Matrices ride in TLCT tensors with a singleton width.
    reduce_w = _manifest_tensor(manifest, "se.reduce", base)[:, :, 0]
    expand_w = _manifest_tensor(manifest, "se.expand", base)[:, :, 0]
    c = reduce_w.shape[0]
    hidden = reduce_w.shape[1]
    if hidden < 1 or c % hidden != 0:
        raise DataError(f"hidden width {hidden} must divide channels {c}")
    return modules.SeParams(reduce_w, expand_w, ratio=c // hidden)


def load_norm_params(manifest: dict, base: Path, kind: str) -> modules.NormParams:
    gamma = _manifest_tensor(manifest, "norm.gamma", base).reshape(-1)
    beta = _manifest_tensor(manifest, "norm.beta", base).reshape(-1)
    eps = float(manifest.get("norm.eps", "1e-5"))
    if kind == "in":
        groups = gamma.size
    else:
        groups = int(manifest.get("norm.groups", "1"))
    return modules.NormParams(gamma=gamma, beta=beta, eps=eps, groups=groups)


# --- subcommands -------------------------------------------------------------


def cmd_aggregate(args) -> int:
    _apply_config(args, {"k": [384, 384], "stat": "mean", "r": 1,
                         "brute_force": False})
    if not args.input or not args.output:
        raise UsageError("aggregate needs --input and --output")
    if args.brute_force and args.stat not in ("mean", "var"):
        raise UsageError(f"--brute-force has no path for --stat {args.stat}")
    window = _window(args)
    data = read_tensor(args.input).data
    if args.stat == "mean":
        if args.brute_force:
            stat = brute_force_local_mean(data, PointwiseMap.IDENTITY, window)
        else:
            stat = local_aggregate(data, PointwiseMap.IDENTITY, window)
    elif args.stat == "var":
        if args.brute_force:
            m = brute_force_local_mean(data, PointwiseMap.IDENTITY, window)
            sq = brute_force_local_mean(data, PointwiseMap.SQUARE, window)
            stat = np.maximum(sq - m * m, 0.0)
        else:
            stat = local_mean_var(data, window)[1]
    elif args.stat == "max":
        stat = local_max(data, window)
    elif args.stat == "strided-mean":
        stat = strided_local_mean(data, window, args.r)
    else:
        raise UsageError(f"unknown stat {args.stat!r}")
    out = FeatureMap(stat)
    write_tensor(out, args.output)
    _write_csv(
        Path(args.output).with_suffix(".csv"),
        ["stat", "value"],
        [
            ("min", float(out.data.min())),
            ("max", float(out.data.max())),
            ("mean", float(out.data.mean())),
        ],
    )
    return EXIT_OK


def _module_forward(kind: str, x: FeatureMap, params, window):
    if kind == "se":
        return modules.se_forward(x, params, window)
    if kind in ("in", "gn"):
        return modules.norm_forward(x, params, window)
    if kind == "ge":
        return modules.ge_forward(x, window)
    if kind == "cbam":
        return modules.cbam_channel_forward(x, params, window)
    raise UsageError(f"unknown module {kind!r}")


def cmd_convert(args) -> int:
    _apply_config(args, {"k": [384, 384]})
    if not args.input or not args.outdir or not args.module:
        raise UsageError("convert needs --input, --outdir and --module")
    kind = args.module
    window = _window(args)
    x = read_tensor(args.input)
    params = None
    ratio = 16
    if kind in ("se", "cbam", "in", "gn"):
        if not args.params:
            raise UsageError(f"module {kind!r} needs --params")
        manifest = _load_config(args.params)
        base = Path(args.params).parent
        if kind in ("se", "cbam"):
            params = load_se_params(manifest, base)
            ratio = params.ratio
        else:
            params = load_norm_params(manifest, base, kind)

    out_global = _module_forward(kind, x, params, None)
    out_local = _module_forward(kind, x, params, window)

    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    write_tensor(out_global, outdir / "global.tlct")
    write_tensor(out_local, outdir / "local.tlct")
    channel_max = np.empty(x.channels)
    _write_rows(outdir / "absdiff.tlct", out_global.data.shape,
                _absdiff_rows(out_global.data, out_local.data, channel_max))

    macs = modules.module_macs(kind, x.channels, x.height, x.width, ratio)
    rows = [
        ("max_abs_diff", float(channel_max.max())),
        ("global_macs", macs["global_macs"]),
        ("local_macs", macs["local_macs"]),
        ("host_macs", macs["host_macs"]),
        ("local_overhead", macs["overhead"]),
    ]
    rows.extend(_crop_law_spot_checks(kind, x, params, window, out_local))
    _write_csv(outdir / "report.csv", ["key", "value"], rows)
    return EXIT_OK


def _absdiff_rows(a: np.ndarray, b: np.ndarray, channel_max: np.ndarray):
    """rows(lo, hi) for tensor._write_rows: |a - b| over channels lo:hi,
    computed in one scratch array of one block. Fills channel_max[lo:hi]
    as a side effect."""
    scratch = np.empty((min(block_rows(a.shape), len(a)),) + a.shape[1:])

    def rows(lo: int, hi: int) -> np.ndarray:
        d = scratch[:hi - lo]
        np.subtract(a[lo:hi], b[lo:hi], out=d)
        np.abs(d, out=d)
        np.max(d, axis=(-2, -1), out=channel_max[lo:hi])
        return d

    return rows


def _crop_law_spot_checks(kind, x: FeatureMap, params, window: WindowSpec,
                          local_out: FeatureMap, count=3):
    """Local output at interior pixels vs the global module on the
    centered crop. The window is clamped to the map, so one always fits."""
    k_h, k_w = window.effective(x.height, x.width)
    rows = []
    tops_r = np.linspace(0, x.height - k_h, num=count, dtype=int)
    tops_c = np.linspace(0, x.width - k_w, num=count, dtype=int)
    for t_r, t_c in zip(tops_r, tops_c):
        cy, cx = t_r + (k_h - 1) // 2, t_c + (k_w - 1) // 2
        crop = FeatureMap(x.data[:, t_r:t_r + k_h, t_c:t_c + k_w].copy())
        ref = _module_forward(kind, crop, params, None)
        err = float(
            np.max(np.abs(local_out.data[:, cy, cx]
                          - ref.data[:, cy - t_r, cx - t_c]))
        )
        rows.append((f"crop_check_{cy}_{cx}", err))
    return rows


def cmd_stats(args) -> int:
    _apply_config(args, {"seed": 42, "n": 500, "bins": 20})
    if not args.outdir:
        raise UsageError("stats needs --outdir")
    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    report = analysis.run_shift_experiment(args.seed, n=args.n)
    samples = []
    for s in (report.train, report.test, report.test_tlc):
        samples.extend((s.label.value, float(v)) for v in s.values)
        _write_csv(
            outdir / f"hist_{s.label.value}.csv",
            ["bin_left", "count"],
            analysis.histogram(s, args.bins),
        )
    _write_csv(outdir / "samples.csv", ["label", "value"], samples)
    _write_csv(
        outdir / "ks.csv",
        ["pair", "ks"],
        [
            ("TrainPatch-TestImage", report.ks_train_test),
            ("TrainPatch-TestImageTLC", report.ks_train_tlc),
        ],
    )
    if not report.shift_reduced:
        raise PropertyCheckFailure(
            f"local pooling did not reduce the shift: "
            f"{report.ks_train_tlc} >= {report.ks_train_test}"
        )
    return EXIT_OK


def cmd_calibrate(args) -> int:
    _apply_config(args, {"calib": [384, 384]})
    if not args.layer:
        raise UsageError("calibrate needs at least one --layer name=scale")
    layers = []
    for spec in args.layer:
        if "=" not in spec:
            raise UsageError(f"--layer wants name=scale, got {spec!r}")
        name, scale = spec.split("=", 1)
        try:
            layers.append(analysis.Layer(name=name, scale=float(scale)))
        except ValueError as exc:
            raise UsageError(str(exc)) from exc
    graph = analysis.LayerGraph(tuple(layers))
    sizes = analysis.calibrate_windows(graph, args.calib[0], args.calib[1])
    rows = [(name, kh, kw) for name, (kh, kw) in sizes.items()]
    if args.output:
        _write_csv(args.output, ["layer", "k_h", "k_w"], rows)
    else:
        for name, kh, kw in rows:
            print(f"{name},{kh},{kw}")
    return EXIT_OK


def cmd_bench(args) -> int:
    _apply_config(args, {"seed": 0, "reps": 5})
    if not args.output:
        raise UsageError("bench needs --output")
    rng = np.random.default_rng(args.seed)
    x = rng.standard_normal((512, 512))
    sizes = (8, 32, 128)
    paths = {}
    for k in sizes:
        w = WindowSpec(k, k)
        paths[("integral", k)] = lambda w=w: local_aggregate(x, PointwiseMap.IDENTITY, w)
        paths[("brute", k)] = lambda w=w: brute_force_local_mean(x, PointwiseMap.IDENTITY, w)
    for fn in paths.values():
        fn()  # warmup, keeps single-rep runs out of cold-start noise
    times = {key: [] for key in paths}
    # Round-robin over the sizes, one rep of each at a time, so a burst
    # of machine noise slows every size a little rather than one a lot.
    for _ in range(args.reps):
        for key, fn in paths.items():
            t0 = time.perf_counter()
            fn()
            times[key].append(time.perf_counter() - t0)
    # Best-of-reps: scheduler noise only ever inflates timings.
    rows = [(name, k, min(ts)) for (name, k), ts in times.items()]
    best = {"integral": {}, "brute": {}}
    for name, k, t in rows:
        best[name][k] = t
    ratio_integral = max(best["integral"].values()) / min(best["integral"].values())
    ratio_brute = best["brute"][128] / best["brute"][8]
    rows.append(("integral_max_over_min", "-", ratio_integral))
    rows.append(("brute_128_over_8", "-", ratio_brute))
    _write_csv(args.output, ["path", "k", "value"], rows)
    if ratio_integral >= 1.5:
        raise PropertyCheckFailure(
            f"integral path not window-independent: ratio {ratio_integral:.2f}"
        )
    if ratio_brute <= 10.0:
        raise PropertyCheckFailure(
            f"brute-force path too flat: ratio {ratio_brute:.2f}"
        )
    return EXIT_OK


def cmd_demo(args) -> int:
    _apply_config(args, {"seed": 42, "k": [32, 32], "noise": "two-region"})
    if not args.outdir:
        raise UsageError("demo needs --outdir")
    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    window = _window(args)
    result = demo.run_demo(args.seed, window=window, noise=args.noise)
    write_tensor(result.clean, outdir / "clean.tlct")
    write_tensor(result.noisy, outdir / "noisy.tlct")
    write_tensor(result.restored_global, outdir / "restored_global.tlct")
    write_tensor(result.restored_local, outdir / "restored_local.tlct")
    _write_csv(
        outdir / "psnr.csv",
        ["variant", "psnr_db"],
        [
            ("noisy", result.psnr_noisy.psnr_db),
            ("global", result.psnr_global.psnr_db),
            ("local", result.psnr_local.psnr_db),
        ],
    )
    return EXIT_OK


def cmd_fuse(args) -> int:
    _apply_config(args, {"k": [384, 384], "transform": "identity",
                         "temperature": 1.0})
    if not args.input or not args.outdir:
        raise UsageError("fuse needs --input and --outdir")
    x = read_tensor(args.input)
    k = args.k
    stride = args.stride or [max(1, k[0] // 2), max(1, k[1] // 2)]
    plan = fusion.plan_tiles(x.height, x.width, (k[0], k[1]),
                             (stride[0], stride[1]))
    if args.transform == "identity":
        op = lambda win: win
    elif args.transform == "attention":
        p = fusion.AttnParams(temperature=args.temperature)
        op = lambda win: fusion.transposed_attention(win, p)
    elif args.transform == "mean-broadcast":
        op = lambda win: np.broadcast_to(
            win.mean(axis=(1, 2), keepdims=True), win.shape
        )
    else:
        raise UsageError(f"unknown transform {args.transform!r}")
    fused = fusion.apply_and_fuse(x, plan, op)
    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    write_tensor(fused, outdir / "fused.tlct")
    _write_csv(
        outdir / "seam.csv",
        ["map", "seam_metric"],
        [
            ("input", fusion.seam_metric(x, plan)),
            ("fused", fusion.seam_metric(fused, plan)),
        ],
    )
    return EXIT_OK


# --- argument parsing --------------------------------------------------------


def build_parser() -> _Parser:
    parser = _Parser(prog="tlc", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", default=None)
        p.add_argument("--k", type=int, nargs=2, metavar=("H", "W"), default=None)
        p.add_argument("--stride", type=int, nargs=2, metavar=("H", "W"), default=None)
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--input", default=None)
        p.add_argument("--output", default=None)

    p = sub.add_parser("aggregate", help="windowed mean/var/max of a tensor")
    common(p)
    p.add_argument("--stat", choices=["mean", "var", "max", "strided-mean"],
                   default=None)
    p.add_argument("--r", type=int, default=None, help="stride for strided-mean")
    p.add_argument("--brute-force", action="store_true", default=None,
                   help="use the O(K^2)-per-pixel reference path (--stat mean, var)")
    p.set_defaults(func=cmd_aggregate)

    p = sub.add_parser("convert", help="run a module in global and local mode")
    common(p)
    p.add_argument("--module", choices=["se", "in", "gn", "ge", "cbam"],
                   default=None)
    p.add_argument("--params", default=None, help="key=value params manifest")
    p.add_argument("--outdir", default=None)
    p.set_defaults(func=cmd_convert)

    p = sub.add_parser("stats", help="pooled-statistic distribution shift")
    common(p)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--bins", type=int, default=None)
    p.add_argument("--outdir", default=None)
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("calibrate", help="per-layer window sizes")
    common(p)
    p.add_argument("--calib", type=int, nargs=2, metavar=("H", "W"), default=None)
    p.add_argument("--layer", action="append", default=None,
                   metavar="NAME=SCALE")
    p.set_defaults(func=cmd_calibrate)

    p = sub.add_parser("bench", help="integral vs brute-force timing ratios")
    common(p)
    p.add_argument("--reps", type=int, default=None)
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("demo", help="global vs local Wiener restoration")
    common(p)
    p.add_argument("--noise", choices=["none", "uniform", "two-region"],
                   default=None)
    p.add_argument("--outdir", default=None)
    p.set_defaults(func=cmd_demo)

    p = sub.add_parser("fuse", help="overlap-tile transform and fusion")
    common(p)
    p.add_argument("--transform",
                   choices=["identity", "attention", "mean-broadcast"],
                   default=None)
    p.add_argument("--temperature", type=float, default=None)
    p.add_argument("--outdir", default=None)
    p.set_defaults(func=cmd_fuse)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except IoFailure as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return EXIT_IO
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except PropertyCheckFailure as exc:
        print(f"property check failed: {exc}", file=sys.stderr)
        return EXIT_PROPERTY
    except TlcError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
