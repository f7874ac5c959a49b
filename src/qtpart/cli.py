"""Command-line front end.

Exit codes: 0 success, 2 usage error, 3 data error (missing, unreadable
or malformed inputs), 4 model error. Every command that writes artifacts
also writes the resolved configuration next to them as JSON.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import math
import sys
from pathlib import Path

from .codec import CodecConfig, check_split_sizes, psnr_of_mse
from .dataset import (DatasetError, balance, balance_trajectories,
                      collect_records, collect_trajectories, load_records,
                      load_trajectories, qp_configs, save_records, save_trajectories)
from .decision import ThresholdPolicy, encode_frame
from .dqn import DqnHyper, train_dqn
from .features import LAYOUT_HASH, describe_layout
from .frame_io import load_frame
from .metrics import (ABLATION_CONFIGS, EVAL_QPS, RdCurve, bd_rate, check_thresholds,
                      require_eval_qps, run_ablation, sweep)
from .mlp import (DEFAULT_HIDDEN, VARIANT_SIZES, ModelError, TrainHyper,
                  load_model, save_model, train_regression)


def _csv(values) -> str:
    return ",".join(map(str, values))


DEFAULT_QPS = _csv(EVAL_QPS)
JOBS_HELP = "accepted and ignored; collection runs serially"


LISTS = {"qps": int, "sizes": int, "hidden": int,         # comma-list options
         "active_sizes": int, "thresholds": float}


def _list(args, name: str) -> list:
    """The elements of a comma-list option, which ``args`` keeps as its
    string; a bad element is refused naming the option."""
    kind, values = LISTS[name], []
    for v in filter(None, getattr(args, name).split(",")):
        try:
            values.append(kind(v))
        except ValueError:
            raise ValueError(f"--{name.replace('_', '-')}: {v!r} is not "
                             f"{'an integer' if kind is int else 'a number'}") from None
    return values


def _load_frames(paths, fmt, width, height):
    return [load_frame(p, fmt, width, height) for p in paths]


def _write_config(target: Path, args: argparse.Namespace) -> None:
    """Dump the resolved arguments next to the command's outputs."""
    resolved = {k: v for k, v in sorted(vars(args).items()) if k != "func"}
    if target.is_dir():
        path = target / "config.json"
    else:
        path = target.with_name(target.name + ".config.json")
    path.write_text(json.dumps(resolved, indent=2, sort_keys=True) + "\n")


def _write_csv(path: Path, header: list, rows) -> None:
    with path.open("w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)


def _psnr_value(p: float):
    return "lossless" if math.isinf(p) else p


def _codec_config(args) -> CodecConfig:
    return CodecConfig(ctu=args.ctu, max_depth=args.max_depth,
                       qp=getattr(args, "qp", CodecConfig.qp))


def _check_args(args) -> None:
    """Refuse a comma list with a bad element, a negative seed, a hidden
    width <= 0, a threshold grid ``check_thresholds`` refuses, codec
    settings ``CodecConfig`` refuses, qps the command cannot run and
    block sizes the search cannot split (``check_split_sizes``) before
    any input is read."""
    lists = {name: _list(args, name) for name in LISTS if hasattr(args, name)}
    if getattr(args, "seed", 0) < 0:
        raise DatasetError(f"seed {args.seed} is negative")
    for width in lists.get("hidden", []):
        if width <= 0:
            raise DatasetError(f"hidden width {width} must be positive")
    if "thresholds" in lists:
        check_thresholds(lists["thresholds"])
    if not hasattr(args, "ctu"):
        return
    cfg = _codec_config(args)
    if args.func is cmd_sweep:
        require_eval_qps(lists["qps"])
    elif "qps" in lists:
        qp_configs(lists["qps"], cfg)
    if "sizes" in lists:
        check_split_sizes(lists["sizes"], cfg, proper=True)
    if args.func is cmd_dataset_trajectories:
        check_split_sizes((32, 16), cfg, proper=True)
    if "active_sizes" in lists and getattr(args, "model", True):   # encode may gate nothing
        check_split_sizes(lists["active_sizes"], cfg)


def _add_frame_args(p, many: bool):
    """The input frames and the CTU settings they are searched with."""
    if many:
        p.add_argument("--frames", nargs="+", required=True, help="input frame files")
    else:
        p.add_argument("--frame", required=True, help="input frame file")
    p.add_argument("--format", default="pgm8", choices=("pgm8", "rawy"))
    p.add_argument("--width", type=int, default=None)
    p.add_argument("--height", type=int, default=None)
    p.add_argument("--ctu", type=int, default=CodecConfig.ctu)
    p.add_argument("--max-depth", type=int, default=CodecConfig.max_depth)


def _add_regression_args(p):
    p.add_argument("--epochs", type=int, default=TrainHyper.epochs)
    p.add_argument("--batch", type=int, default=TrainHyper.batch)
    p.add_argument("--lr", type=float, default=TrainHyper.lr)
    p.add_argument("--seed", type=int, default=0)


def cmd_features_describe(args) -> int:
    obj = {"layout_hash": LAYOUT_HASH, "count": len(describe_layout()),
           "features": describe_layout()}
    text = json.dumps(obj, indent=2)
    print(text)
    if args.out:
        Path(args.out).write_text(text + "\n")
        _write_config(Path(args.out), args)
    return 0


def cmd_dataset_build(args) -> int:
    frames = _load_frames(args.frames, args.format, args.width, args.height)
    cfg = _codec_config(args)
    records = balance(collect_records(frames, _list(args, "qps"), cfg,
                                      _list(args, "sizes"), seed=args.seed),
                      seed=args.seed)
    save_records(records, args.out)
    _write_config(Path(args.out), args)
    print(f"wrote {len(records)} records to {args.out}")
    return 0


def cmd_dataset_trajectories(args) -> int:
    frames = _load_frames(args.frames, args.format, args.width, args.height)
    cfg = _codec_config(args)
    trajs = balance_trajectories(
        collect_trajectories(frames, _list(args, "qps"), cfg, seed=args.seed),
        seed=args.seed)
    save_trajectories(trajs, args.out)
    _write_config(Path(args.out), args)
    print(f"wrote {len(trajs)} trajectories to {args.out}")
    return 0


def cmd_train_reg(args) -> int:
    hyper = TrainHyper(lr=args.lr, batch=args.batch, epochs=args.epochs)
    records = load_records(args.dataset)
    mask = args.mask.split(",") if args.mask else ()
    hidden = tuple(_list(args, "hidden"))
    model, history = train_regression(records, args.variant, hyper=hyper,
                                      seed=args.seed, mask=mask, hidden=hidden)
    save_model(model, args.out)
    _write_csv(Path(args.out).with_name(Path(args.out).name + ".loss.csv"),
               ["epoch", "train_loss"], enumerate(history))
    _write_config(Path(args.out), args)
    print(f"trained {args.variant} on {len(records)} records, "
          f"final loss {history[-1]:.6g}")
    return 0


def cmd_train_dqn(args) -> int:
    hyper = DqnHyper(steps=args.steps, batch=args.batch, capacity=args.capacity,
                     lr=args.lr, hidden=tuple(_list(args, "hidden")))
    trajs = load_trajectories(args.trajectories)
    model, diag = train_dqn(trajs, hyper, seed=args.seed)
    save_model(model, args.out)
    _write_csv(Path(args.out).with_name(Path(args.out).name + ".diag.csv"),
               ["step", "td_error", "epsilon"], diag)
    _write_config(Path(args.out), args)
    print(f"trained value model on {len(trajs)} trajectories, "
          f"{args.steps} steps")
    return 0


def cmd_encode(args) -> int:
    if args.model and args.threshold is None:
        raise DatasetError("--model requires --threshold")
    if args.threshold is not None and not args.model:
        raise DatasetError("--threshold requires --model")
    frame = load_frame(args.frame, args.format, args.width, args.height)
    cfg = _codec_config(args)
    policy = None
    if args.model:
        policy = ThresholdPolicy(model=load_model(args.model),
                                 threshold=args.threshold,
                                 active_sizes=tuple(_list(args, "active_sizes")))
    res = encode_frame(frame, cfg, policy)
    report = {
        "qp": args.qp,
        "threshold": args.threshold,
        "processed_pixels": res.pixels,
        "total_rate_bits": res.rate_bits(),
        "psnr_db": _psnr_value(psnr_of_mse(res.sse() / res.covered_area)),
    }
    Path(args.out).write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    if args.tree:
        trees = {"ctus": [t.to_dict() for t in res.trees]}
        Path(args.tree).write_text(json.dumps(trees, sort_keys=True) + "\n")
    _write_config(Path(args.out), args)
    print(json.dumps(report, sort_keys=True))
    return 0


def cmd_sweep(args) -> int:
    frames = _load_frames(args.frames, args.format, args.width, args.height)
    cfg = _codec_config(args)
    model = load_model(args.model)
    result = sweep(frames, cfg, model, tuple(_list(args, "active_sizes")),
                   _list(args, "thresholds"))
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    _write_csv(out / "sweep.csv", list(result.rows[0]),
               [row.values() for row in result.rows])
    summary = {
        "anchor": {str(qp): result.anchor[qp] for qp in sorted(result.anchor)},
        "points": [{"threshold": p.threshold, "delta_c_pct": p.delta_c,
                    "bd_rate_pct": p.bd_rate} for p in result.points],
    }
    (out / "summary.json").write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")
    _write_config(out, args)
    print(f"swept {len(result.points)} thresholds; results in {out}")
    return 0


def cmd_bdrate(args) -> int:
    def read_curve(path):
        raw = json.loads(Path(path).read_text())
        if not isinstance(raw, dict) or not all(
                k.isdigit() and isinstance(v, list) and len(v) == 2
                and all(type(x) in (int, float) for x in v) for k, v in raw.items()):
            raise ValueError(f"{path}: a curve is a JSON object of qp -> [rate, psnr]")
        return RdCurve.from_qp_points({int(k): tuple(v) for k, v in raw.items()})

    value = bd_rate(read_curve(args.anchor), read_curve(args.test))
    print(f"{value:.6f}")
    return 0


def cmd_ablate(args) -> int:
    hyper = TrainHyper(lr=args.lr, batch=args.batch, epochs=args.epochs)
    records = load_records(args.dataset)
    frames = _load_frames(args.frames, args.format, args.width, args.height)
    cfg = _codec_config(args)
    configs = args.configs.split(",") if args.configs else list(ABLATION_CONFIGS)
    rows = run_ablation(records, frames, cfg, _list(args, "thresholds"),
                        configs=configs, hyper=hyper, seed=args.seed,
                        active_sizes=tuple(_list(args, "active_sizes")))
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    bd_keys = ("bd_at_dc10", "bd_at_dc20")
    _write_csv(out / "ablation.csv", ["config", *bd_keys],
               [[row["config"], *("unreachable" if row[k] is None else row[k]
                                  for k in bd_keys)] for row in rows])
    _write_config(out, args)
    print(f"ablation over {len(rows)} configs; results in {out}")
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: ``parse_args``
    returns a fresh namespace on every call and keeps no state."""
    parser = argparse.ArgumentParser(
        prog="qtpart",
        description="toy intra codec with learned quadtree split pruning")
    sub = parser.add_subparsers(dest="command")

    p_feat = sub.add_parser("features", help="descriptor utilities")
    feat_sub = p_feat.add_subparsers(dest="subcommand")
    p = feat_sub.add_parser("describe", help="print the 115-entry layout")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_features_describe)

    p_data = sub.add_parser("dataset", help="build training sets")
    data_sub = p_data.add_subparsers(dest="subcommand")
    for name, fn, extra_sizes in (("build", cmd_dataset_build, True),
                                  ("trajectories", cmd_dataset_trajectories, False)):
        p = data_sub.add_parser(name)
        _add_frame_args(p, many=True)
        p.add_argument("--qps", default=DEFAULT_QPS)
        if extra_sizes:
            p.add_argument("--sizes", default="32")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--jobs", type=int, default=1, help=JOBS_HELP)
        p.add_argument("--out", required=True)
        p.set_defaults(func=fn)

    p_train = sub.add_parser("train", help="fit models")
    train_sub = p_train.add_subparsers(dest="subcommand")
    p = train_sub.add_parser("reg", help="cost regression")
    p.add_argument("--dataset", required=True)
    p.add_argument("--variant", default="N32", choices=tuple(VARIANT_SIZES))
    _add_regression_args(p)
    p.add_argument("--mask", default=None, help="feature groups to zero, e.g. NI,HOG")
    p.add_argument("--hidden", default=_csv(DEFAULT_HIDDEN))
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_train_reg)

    p = train_sub.add_parser("dqn", help="two-depth value learning")
    p.add_argument("--trajectories", required=True)
    p.add_argument("--steps", type=int, default=DqnHyper.steps)
    p.add_argument("--batch", type=int, default=DqnHyper.batch)
    p.add_argument("--lr", type=float, default=DqnHyper.lr)
    p.add_argument("--capacity", type=int, default=DqnHyper.capacity)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--hidden", default=_csv(DEFAULT_HIDDEN))
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_train_dqn)

    p = sub.add_parser("encode", help="encode one frame")
    _add_frame_args(p, many=False)
    p.add_argument("--qp", type=int, default=CodecConfig.qp)
    p.add_argument("--model", default=None)
    p.add_argument("--threshold", type=float, default=None)
    p.add_argument("--active-sizes", default=_csv(ThresholdPolicy.active_sizes))
    p.add_argument("--tree", default=None, help="also dump the partition tree JSON")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_encode)

    p = sub.add_parser("sweep", help="threshold sweep against the exhaustive anchor")
    _add_frame_args(p, many=True)
    p.add_argument("--qps", default=DEFAULT_QPS)
    p.add_argument("--model", required=True)
    p.add_argument("--thresholds", required=True)
    p.add_argument("--active-sizes", default=_csv(ThresholdPolicy.active_sizes))
    p.add_argument("--jobs", type=int, default=1, help=JOBS_HELP)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("bdrate", help="rate delta between two stored curves")
    p.add_argument("--anchor", required=True)
    p.add_argument("--test", required=True)
    p.set_defaults(func=cmd_bdrate)

    p = sub.add_parser("ablate", help="feature ablation report")
    p.add_argument("--dataset", required=True)
    _add_frame_args(p, many=True)
    p.add_argument("--thresholds", required=True)
    p.add_argument("--configs", default=None)
    _add_regression_args(p)
    p.add_argument("--active-sizes", default=_csv(ThresholdPolicy.active_sizes))
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_ablate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    if not hasattr(args, "func"):
        parser.print_usage(sys.stderr)
        return 2
    try:
        _check_args(args)
        return args.func(args) or 0
    except ModelError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
