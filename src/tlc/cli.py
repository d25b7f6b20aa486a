"""Command-line entry point.

Subcommands: aggregate, convert, stats, calibrate, bench, demo, fuse.
Each command takes only the flags it reads, and ``tlc <command> -h``
lists them. Exit codes: 0 success, 1 usage error (an unknown or unread
flag too, such as ``--r`` with a --stat other than strided-mean), 2 I/O
error (a CSV or output directory that cannot be written too), 3
data/shape error, 4 property-check failure (stats/bench assertions).

Every command takes ``--config PATH`` pointing at a flat key=value file
(# comments allowed). Its keys are exactly the command's flags without
the dashes, and an unknown or unread key is a usage error. ``k``,
``stride`` and ``calib`` take two integers split on spaces or commas,
``brute-force`` takes 0 or 1, and ``layer`` adds one ``--layer`` to
those of the command line. Explicit flags win over config values. All
randomness flows from one ``--seed`` through numpy's PCG64 generator, so
equal seeds give byte-identical outputs. ``stats`` draws each of its
full TestImage maps from its own stream, spawned from the seeded one,
so that two maps are drawn at once on the thread pool; its outputs do
not depend on the core count.
"""

from __future__ import annotations

import argparse
import csv
import functools
import math
import os
import stat
import sys
import time
from pathlib import Path

import numpy as np

from . import analysis, demo, fusion, modules
from .errors import DataError, EmptyWindowSample, IoFailure, TlcError
from .integral import (
    brute_force_local_mean,
    local_aggregate,
    local_max,
    local_mean_var,
    strided_local_mean,
)
from .tensor import (
    FeatureMap,
    WindowSpec,
    _open_without_truncating,
    _read_float32,
    _write_rows,
    psnr,
    read_tensor,
    write_tensor,
)

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
    """Write header and rows as CSV. A regular file is rewritten in
    place, and truncated only when its length changed: in a loop of
    64x512x512 converts on ext4, truncating on open stalled single
    report.csv writes for up to 202 ms, while the filesystem dropped the
    old file's pages still under writeback; in place they took at most
    0.4 ms. A write that fails part-way can then leave new rows over old
    ones. Any other target (a pipe, a terminal) gets the rows with no
    seek."""
    try:
        with open(path, "w", newline="", opener=_open_without_truncating) as fh:
            w = csv.writer(fh)
            w.writerow(header)
            for row in rows:
                w.writerow([_fmt(v) for v in row])
            fh.flush()
            info = os.fstat(fh.fileno())
            if stat.S_ISREG(info.st_mode):
                end = fh.buffer.tell()
                if info.st_size != end:
                    fh.buffer.truncate(end)
    except OSError as exc:
        raise IoFailure(f"cannot write {path}: {exc}") from exc


def _outdir(path) -> Path:
    """The output directory at path, created with its parents."""
    outdir = Path(path)
    try:
        outdir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise IoFailure(f"cannot create {outdir}: {exc}") from exc
    return outdir


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


def _window(args) -> WindowSpec:
    try:
        return WindowSpec(*args.k)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


# --- params manifests --------------------------------------------------------


def _manifest_tensor(manifest: dict, key: str, base: Path) -> np.ndarray:
    if key not in manifest:
        raise DataError(f"params manifest missing key {key!r}")
    return read_tensor(base / manifest[key]).data


def _manifest_matrix(manifest: dict, key: str, base: Path) -> np.ndarray:
    # Matrices ride in TLCT tensors with a singleton width.
    m = _manifest_tensor(manifest, key, base)
    if m.shape[2] != 1:
        raise DataError(f"{key} must have width 1, got {m.shape[2]}")
    return m[:, :, 0]


def load_se_params(manifest: dict, base: Path) -> modules.SeParams:
    reduce_w = _manifest_matrix(manifest, "se.reduce", base)
    expand_w = _manifest_matrix(manifest, "se.expand", base)
    c = reduce_w.shape[0]
    hidden = reduce_w.shape[1]
    if hidden < 1 or c % hidden != 0:
        raise DataError(f"hidden width {hidden} must divide channels {c}")
    return modules.SeParams(reduce_w, expand_w, ratio=c // hidden)


def load_norm_params(manifest: dict, base: Path, kind: str) -> modules.NormParams:
    gamma = _manifest_tensor(manifest, "norm.gamma", base).reshape(-1)
    beta = _manifest_tensor(manifest, "norm.beta", base).reshape(-1)
    try:
        eps = float(manifest.get("norm.eps", "1e-5"))
        groups = gamma.size if kind == "in" else int(manifest.get("norm.groups", "1"))
        return modules.NormParams(gamma=gamma, beta=beta, eps=eps, groups=groups)
    except ValueError as exc:
        raise DataError(f"params manifest: {exc}") from exc


# --- subcommands -------------------------------------------------------------


def cmd_aggregate(args) -> int:
    if not args.input or not args.output:
        raise UsageError("aggregate needs --input and --output")
    if args.brute_force and args.stat not in ("mean", "var"):
        raise UsageError(f"--brute-force has no path for --stat {args.stat}")
    if args.r is not None and args.stat != "strided-mean":
        raise UsageError(f"--r is not read by --stat {args.stat}, only by strided-mean")
    window = _window(args)
    data = read_tensor(args.input).data
    if args.stat == "mean":
        if args.brute_force:
            stat = brute_force_local_mean(data, window)
        else:
            stat = local_aggregate(data, window)
    elif args.stat == "var":
        if args.brute_force:
            # Centred on each channel's mean, so that the two means do
            # not cancel on a large offset.
            centred = data - data.mean(axis=(-2, -1), keepdims=True)
            m = brute_force_local_mean(centred, window)
            sq = brute_force_local_mean(centred * centred, window)
            stat = np.maximum(sq - m * m, 0.0)
        else:
            stat = local_mean_var(data, window)[1]
    elif args.stat == "max":
        stat = local_max(data, window)
    else:  # strided-mean
        # --r 0 and an --r that leaves a window without samples are
        # both a bad choice of flags, not bad data.
        try:
            stat = strided_local_mean(data, window, 1 if args.r is None else args.r)
        except (ValueError, EmptyWindowSample) as exc:
            raise UsageError(str(exc)) from exc
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
    return modules.cbam_channel_forward(x, params, window)


def cmd_convert(args) -> int:
    if not args.input or not args.outdir or not args.module:
        raise UsageError("convert needs --input, --outdir and --module")
    kind = args.module
    if kind == "ge" and args.params is not None:
        raise UsageError("--params is not read by --module ge, which has no parameters")
    window = _window(args)
    # The input stays float32, half the memory of a float64 map; every
    # step widens what it computes on one block at a time (see
    # tlc.integral), so the outputs are those of the float64 map.
    x = _read_float32(args.input)
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

    # The global output is never a full map: the TLCT writer runs the
    # apply step a round of channels at a time as it writes global.tlct,
    # and |global - local| as it writes absdiff.tlct. A window that covers
    # the map makes the local output the global one (see tlc.modules), so
    # local.tlct is then written from the apply step too, absdiff.tlct is
    # zero, and the module runs once.
    apply, coefficients = modules._global_steps(kind, x, params)
    covering = modules._is_global(x, window)
    out_local = None if covering else _module_forward(kind, x, params, window)

    outdir = _outdir(args.outdir)
    _write_rows(outdir / "global.tlct", apply, x.data, *coefficients)
    channel_max = np.zeros(x.channels)
    if covering:
        _write_rows(outdir / "local.tlct", apply, x.data, *coefficients)
        _write_rows(outdir / "absdiff.tlct", None, np.broadcast_to(0.0, x.data.shape))
        local_at = functools.partial(_apply_at, x.data, apply, coefficients)
    else:
        write_tensor(out_local, outdir / "local.tlct")

        def absdiff(*blocks):
            # Also fills channel_max with each channel's largest difference.
            *inputs, loc, cmax, out = blocks
            d = apply(*inputs, out)
            np.subtract(d, loc, out=d)
            np.abs(d, out=d)
            np.max(d, axis=(-2, -1), out=cmax)

        _write_rows(outdir / "absdiff.tlct", absdiff, x.data, *coefficients,
                    out_local.data, channel_max)
        local_at = lambda cy, cx: out_local.data[:, cy, cx]

    macs = modules.module_macs(kind, x.channels, x.height, x.width, ratio)
    k_h, k_w = window.effective(x.height, x.width)
    rows = [
        ("window_h", k_h),
        ("window_w", k_w),
        ("max_abs_diff", float(channel_max.max())),
        ("global_macs", macs["global_macs"]),
        ("local_macs", macs["local_macs"]),
        ("host_macs", macs["host_macs"]),
        ("local_overhead", macs["overhead"]),
    ]
    rows.extend(_crop_law_spot_checks(kind, x, params, window, local_at))
    _write_csv(outdir / "report.csv", ["key", "value"], rows)
    return EXIT_OK


def _apply_at(x: np.ndarray, apply, coefficients: tuple, cy: int, cx: int) -> np.ndarray:
    """The apply step at pixel (cy, cx) of x alone, one value per
    channel. Apply steps are elementwise, so this is bit for bit that
    pixel of the apply step over the whole map."""
    return apply(x[:, cy:cy + 1, cx:cx + 1], *coefficients, None)[:, 0, 0]


def _crop_law_spot_checks(kind, x: FeatureMap, params, window: WindowSpec,
                          local_at, count=3):
    """Local output at interior pixels, local_at(cy, cx), vs the global
    module on the centered crop, one row per distinct crop. The window
    is clamped to the map, so one always fits.

    Each reference is the global module's two steps: the coefficient
    step on a copy of the crop, then the apply step on the one checked
    pixel only (``_apply_at``), which is that pixel of the global
    forward on the whole crop."""
    k_h, k_w = window.effective(x.height, x.width)
    rows = []
    tops_r = np.linspace(0, x.height - k_h, num=count, dtype=int)
    tops_c = np.linspace(0, x.width - k_w, num=count, dtype=int)
    for t_r, t_c in dict.fromkeys(zip(tops_r.tolist(), tops_c.tolist())):
        cy, cx = t_r + (k_h - 1) // 2, t_c + (k_w - 1) // 2
        crop = FeatureMap(x.data[:, t_r:t_r + k_h, t_c:t_c + k_w].copy())
        ref = _apply_at(x.data, *modules._global_steps(kind, crop, params), cy, cx)
        err = float(np.max(np.abs(local_at(cy, cx) - ref)))
        rows.append((f"crop_check_{cy}_{cx}", err))
    return rows


def cmd_stats(args) -> int:
    if not args.outdir:
        raise UsageError("stats needs --outdir")
    try:
        report = analysis.run_shift_experiment(args.seed, n=args.n)
        sets = (report.train, report.test, report.test_tlc)
        hists = [analysis.histogram(s, args.bins) for s in sets]
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    outdir = _outdir(args.outdir)
    samples = []
    for s, hist in zip(sets, hists):
        samples.extend((s.label.value, float(v)) for v in s.values)
        _write_csv(outdir / f"hist_{s.label.value}.csv", ["bin_left", "count"], hist)
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
    try:
        graph = analysis.LayerGraph(tuple(layers))
        sizes = analysis.calibrate_windows(graph, *args.calib)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    rows = [(name, kh, kw) for name, (kh, kw) in sizes.items()]
    if args.output:
        _write_csv(args.output, ["layer", "k_h", "k_w"], rows)
    else:
        for name, kh, kw in rows:
            print(f"{name},{kh},{kw}")
    return EXIT_OK


def cmd_bench(args) -> int:
    if not args.output:
        raise UsageError("bench needs --output")
    if args.reps < 1:
        raise UsageError(f"--reps must be >= 1, got {args.reps}")
    rng = np.random.default_rng(args.seed)
    x = rng.standard_normal((512, 512))
    sizes = (8, 32, 128)
    paths = {}
    for k in sizes:
        w = WindowSpec(k, k)
        paths[("integral", k)] = lambda w=w: local_aggregate(x, w)
        paths[("brute", k)] = lambda w=w: brute_force_local_mean(x, w)
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
    if not args.outdir:
        raise UsageError("demo needs --outdir")
    outdir = _outdir(args.outdir)
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
    if not args.input or not args.outdir:
        raise UsageError("fuse needs --input and --outdir")
    if args.temperature is not None and args.transform != "attention":
        raise UsageError(f"--temperature is not read by --transform {args.transform}, "
                         "only by attention")
    x = read_tensor(args.input)
    k = args.k
    stride = args.stride or [max(1, k[0] // 2), max(1, k[1] // 2)]
    try:
        plan = fusion.plan_tiles(x.height, x.width, (k[0], k[1]),
                                 (stride[0], stride[1]))
        if args.transform == "attention":
            p = (fusion.AttnParams() if args.temperature is None
                 else fusion.AttnParams(args.temperature))
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    if args.transform == "identity":
        op = lambda win: win
    elif args.transform == "attention":
        op = lambda win: fusion.transposed_attention(win, p)
    else:  # mean-broadcast
        op = lambda win: np.broadcast_to(
            win.mean(axis=(1, 2), keepdims=True), win.shape
        )
    fused = fusion.apply_and_fuse(x, plan, op)
    outdir = _outdir(args.outdir)
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

    def command(name, help):
        p = sub.add_parser(name, help=help)
        p.add_argument("--config", help="key=value file of this command's flags")
        return p

    def pair(p, flag, default):
        p.add_argument(flag, type=int, nargs=2, metavar=("H", "W"), default=default)

    p = command("aggregate", "windowed mean/var/max of a tensor")
    p.add_argument("--input")
    p.add_argument("--output")
    pair(p, "--k", [384, 384])
    p.add_argument("--stat", choices=("mean", "var", "max", "strided-mean"),
                   default="mean")
    p.add_argument("--r", type=int, help="stride for strided-mean (default 1)")
    p.add_argument("--brute-force", action="store_true",
                   help="use the O(K^2)-per-pixel reference path (--stat mean, var)")

    p = command("convert", "run a module in global and local mode")
    p.add_argument("--input")
    p.add_argument("--outdir")
    pair(p, "--k", [384, 384])
    p.add_argument("--module", choices=("se", "in", "gn", "ge", "cbam"))
    p.add_argument("--params", help="key=value params manifest")

    p = command("stats", "pooled-statistic distribution shift")
    p.add_argument("--outdir")
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--n", type=int, default=500)
    p.add_argument("--bins", type=int, default=20)

    p = command("calibrate", "per-layer window sizes")
    p.add_argument("--output")
    pair(p, "--calib", [384, 384])
    p.add_argument("--layer", action="append", metavar="NAME=SCALE")

    p = command("bench", "integral vs brute-force timing ratios")
    p.add_argument("--output")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--reps", type=int, default=5)

    p = command("demo", "global vs local Wiener restoration")
    p.add_argument("--outdir")
    p.add_argument("--seed", type=int, default=42)
    pair(p, "--k", [32, 32])
    p.add_argument("--noise", choices=("none", "uniform", "two-region"),
                   default="two-region")

    p = command("fuse", "overlap-tile transform and fusion")
    p.add_argument("--input")
    p.add_argument("--outdir")
    pair(p, "--k", [384, 384])
    pair(p, "--stride", None)
    p.add_argument("--transform", choices=("identity", "attention", "mean-broadcast"),
                   default="identity")
    p.add_argument("--temperature", type=float, help="for attention (default 1.0)")
    return parser


@functools.cache
def _parser() -> _Parser:
    """The parser of every main call in this process."""
    return build_parser()


def _config_tokens(key: str, value: str) -> list[str]:
    """The command-line tokens of one config entry."""
    if key == "config":
        raise UsageError("config key 'config': a config file cannot name another")
    if key in ("k", "stride", "calib"):  # two integers, commas allowed
        return [f"--{key}"] + value.replace(",", " ").split()
    if key == "brute-force":
        if value not in ("0", "1"):
            raise UsageError(f"config key {key!r}: expected 0 or 1, got {value!r}")
        return ["--brute-force"] * (value == "1")
    return [f"--{key}={value}"]


def _parse_args(argv: list[str]) -> argparse.Namespace:
    """Parse argv with the entries of its --config file as flags placed
    before its own, so that explicit flags win."""
    parser = _parser()
    args = parser.parse_args(argv)
    if args.config:
        config = []
        for key, value in _load_config(args.config).items():
            # The exact flag name: argparse would also take a prefix of one.
            if not hasattr(args, key.replace("-", "_")):
                raise UsageError(f"unknown config key {key!r}")
            tokens = _config_tokens(key, value)
            try:  # alone first, so that an error names its key
                parser.parse_args([args.command] + tokens)
            except UsageError as exc:
                raise UsageError(f"config key {key!r}: {exc}") from exc
            config += tokens
        args = parser.parse_args([args.command] + config + argv[1:])
    if getattr(args, "seed", 0) < 0:
        raise UsageError(f"--seed must be >= 0, got {args.seed}")
    return args


def main(argv=None) -> int:
    try:
        args = _parse_args(sys.argv[1:] if argv is None else list(argv))
        # Looked up at each call, not held by the parser, so that a
        # cmd_* function rebound on this module after import runs.
        return globals()[f"cmd_{args.command}"](args)
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
