"""Command-line pipeline: synthetic data, labeling, training, evaluation,
simulation, and baseline comparison.

Every subcommand is a pure function of its inputs, the config file, and the
seed: rerunning with the same arguments produces byte-identical outputs and
never mutates its inputs.

Exit codes: 0 success, 2 argument errors, 3 schema or config errors,
4 I/O errors, 1 anything unexpected.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import labeler, metrics, predictor, quality, simulator, synth
from .config import load_config
from .errors import ArgumentError, SchemaError, write_text
from .features import FEATURE_NAMES
from .motion import SPEM_LIMIT_DEGPS

EXIT_OK = 0
EXIT_UNEXPECTED = 1
EXIT_ARGUMENT = 2
EXIT_SCHEMA = 3
EXIT_IO = 4


def _denormalize_velocity(norm_velocity: float) -> float:
    return math.expm1(norm_velocity * math.log1p(SPEM_LIMIT_DEGPS))


def _majority(values):
    counts: dict = {}
    for v in values:
        counts[v] = counts.get(v, 0) + 1
    return max(sorted(counts), key=lambda v: counts[v])


def _non_negative_int(text: str) -> int:
    """argparse type: an integer >= 0; argparse exits 2 on anything else."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _write_json(payload: dict, path: Path) -> None:
    write_text(path, json.dumps(payload, sort_keys=True, indent=2) + "\n")


def _label_outputs(grids, margin: float, out: Path) -> list:
    labels = labeler.label_grids(grids, margin)
    labeler.write_labels_csv(labels, out / "labels.csv")
    margins = [round(0.05 * i, 2) for i in range(11)]
    curve = labeler.savings_curve(grids, margins)
    labeler.write_savings_csv(curve, out / "savings_curve.csv")
    hist = labeler.selection_distribution(labels)
    labeler.write_distribution_csv(hist, out / "distribution.csv")
    return labels


def cmd_gen_synthetic(args, cfg, out: Path) -> int:
    clips = synth.sample_clips(args.count, args.seed)
    grids = synth.grids_for_clips(clips, cfg.bitrates_bps, cfg.synthetic_params,
                                  cfg.ladder)
    quality.write_grids_csv(grids, out / "grids.csv")
    labels = _label_outputs(grids, args.margin, out)
    examples = synth.training_examples(clips, labels, args.seed)
    predictor.write_training_csv(examples, out / "training.csv")
    for i in range(args.scenarios):
        scenario = synth.make_scenario(seed=args.seed + i)
        simulator.scenario_to_json(scenario, out / f"scenario_{i:03d}.json")
    print(f"gen-synthetic: {len(clips)} clips, {len(grids)} grids, "
          f"{len(examples)} training rows -> {out}")
    return EXIT_OK


def cmd_label(args, cfg, out: Path) -> int:
    grids = quality.load_grids(args.grids, cfg.ladder)
    if not grids:
        raise ArgumentError(f"{args.grids}: no grids")
    _label_outputs(grids, args.margin, out)
    print(f"label: {len(grids)} grids -> {out}")
    return EXIT_OK


def _evaluation_payload(model, rows) -> dict:
    truth_f = rows.target_f.tolist()
    truth_r = rows.target_r.tolist()
    pred_f, pred_r = predictor.predict_classes(model, rows.x)

    maj_f = _majority(truth_f)
    maj_r = _majority(truth_r)

    velocities = rows.x[:, FEATURE_NAMES.index("norm_velocity")].tolist()
    band_of = labeler.velocity_bands([_denormalize_velocity(v) for v in velocities])
    bands: dict[str, dict] = {}
    for band, name in enumerate(("low", "mid", "high")):
        idx = np.flatnonzero(band_of == band).tolist()
        bands[name] = {"count": len(idx)}
        if idx:
            bands[name]["frame_rate_error_pct"] = metrics.relative_error(
                [pred_f[i] for i in idx], [truth_f[i] for i in idx])
            bands[name]["resolution_error_pct"] = metrics.relative_error(
                [pred_r[i] for i in idx], [truth_r[i] for i in idx])

    return {
        "n_examples": len(rows),
        "frame_rate_error_pct": metrics.relative_error(pred_f, truth_f),
        "resolution_error_pct": metrics.relative_error(pred_r, truth_r),
        "majority_class_frame_rate_error_pct": metrics.relative_error(
            [maj_f] * len(truth_f), truth_f),
        "majority_class_resolution_error_pct": metrics.relative_error(
            [maj_r] * len(truth_r), truth_r),
        "majority_frame_rate_hz": maj_f,
        "majority_resolution_lines": maj_r,
        "velocity_bands": bands,
    }, pred_f, pred_r, truth_f, truth_r


def cmd_train(args, cfg, out: Path) -> int:
    config = predictor.TrainConfig(learning_rate=args.lr, epochs=args.epochs,
                                   batch_size=args.batch_size, seed=args.seed)
    if not 0.0 <= args.holdout < 1.0:
        raise ArgumentError(f"--holdout must be in [0, 1), got {args.holdout}")
    examples = predictor.read_training_csv(args.data, cfg.ladder)
    if not examples:
        raise ArgumentError(f"{args.data}: no training rows")

    rng = np.random.default_rng(args.seed)
    order = rng.permutation(len(examples))
    n_holdout = int(round(args.holdout * len(examples)))
    holdout = examples.take(order[:n_holdout])
    training = examples.take(order[n_holdout:])
    if not training:
        raise ArgumentError("holdout fraction leaves no training rows")

    history: list[float] = []
    model = predictor.train(training, config, cfg.ladder, loss_history=history)
    predictor.save_model(model, out / "model.json")

    payload = {"train": _evaluation_payload(model, training)[0],
               "final_epoch_loss": history[-1] if history else None,
               "epochs": args.epochs, "seed": args.seed}
    if holdout:
        payload["holdout"] = _evaluation_payload(model, holdout)[0]
    _write_json(payload, out / "metrics.json")
    print(f"train: {len(training)} rows ({len(holdout)} held out) -> {out}")
    return EXIT_OK


def cmd_evaluate(args, cfg, out: Path) -> int:
    model = predictor.load_model(args.model)
    examples = predictor.read_training_csv(args.data, model.ladder)
    if not examples:
        raise ArgumentError(f"{args.data}: no rows to evaluate")
    payload, pred_f, pred_r, truth_f, truth_r = _evaluation_payload(model, examples)
    _write_json(payload, out / "metrics.json")
    conf_f = metrics.confusion_matrix(pred_f, truth_f, model.ladder.frame_rates_hz)
    conf_r = metrics.confusion_matrix(pred_r, truth_r, model.ladder.heights)
    metrics.write_confusion_csv(conf_f, model.ladder.frame_rates_hz,
                                out / "confusion_f.csv")
    metrics.write_confusion_csv(conf_r, model.ladder.heights,
                                out / "confusion_r.csv")
    print(f"evaluate: {len(examples)} rows, frame-rate error "
          f"{payload['frame_rate_error_pct']:.2f}%, resolution error "
          f"{payload['resolution_error_pct']:.2f}% -> {out}")
    return EXIT_OK


def _play(engine, args, cfg, *engine_args, **kwargs):
    """Run a session engine with the config's encoder settings. A scenario
    that the engine refuses at run time is named in the error."""
    try:
        return engine(*engine_args, iframe_multiplier=cfg.iframe_bit_multiplier,
                      jitter_pct=cfg.jitter_pct, seed=args.seed, **kwargs)
    except ArgumentError as exc:
        raise ArgumentError(f"{args.scenario}: {exc}") from None


def cmd_simulate(args, cfg, out: Path) -> int:
    scenario = simulator.scenario_from_json(args.scenario)
    model = predictor.load_model(args.model, cfg.ladder)
    source = simulator.SyntheticQualitySource(cfg.synthetic_params)
    trace = _play(simulator.run_session, args, cfg, scenario, model, cfg.graph, source)
    simulator.write_frame_csv(trace, out / "trace_frames.csv")
    simulator.write_window_csv(trace, out / "trace_windows.csv")
    _write_json(simulator.summary_dict(trace), out / "summary.json")
    s = trace.summary
    print(f"simulate: {s.n_windows} windows, mean quality "
          f"{s.mean_quality_jod:.3f} JOD, bitrate error "
          f"{s.bitrate_error_pct:.4f}% -> {out}")
    return EXIT_OK


def cmd_compare(args, cfg, out: Path) -> int:
    scenario = simulator.scenario_from_json(args.scenario)
    source = simulator.SyntheticQualitySource(cfg.synthetic_params)
    traces = _play(simulator.compare_baselines, args, cfg, scenario, source,
                   margin_jod=args.margin, ladder=cfg.ladder)
    payload = {name: simulator.summary_dict(trace)
               for name, trace in traces.items()}
    _write_json(payload, out / "comparison.json")
    for name, trace in traces.items():
        simulator.write_window_csv(trace, out / f"windows_{name}.csv")
    lines = [f"{name}: {summary['mean_quality_jod']:.3f} JOD, "
             f"{summary['total_pixels']} px"
             for name, summary in sorted(payload.items())]
    print("compare: " + "; ".join(lines))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="adastream",
        description="Adaptive frame-rate/resolution streaming pipeline")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, margin=False):
        p.add_argument("--config", default=None, help="JSON config file")
        p.add_argument("--seed", type=_non_negative_int, default=0)
        if margin:
            p.add_argument("--margin", type=float, default=labeler.DEFAULT_MARGIN_JOD,
                           help="quality margin in JOD")
        p.add_argument("--out", required=True, help="output directory")

    p = sub.add_parser("gen-synthetic", help="generate synthetic grids, labels, "
                                             "training data, and scenarios")
    common(p, margin=True)
    p.add_argument("--count", type=int, default=100, help="number of clips")
    p.add_argument("--scenarios", type=_non_negative_int, default=1,
                   help="number of scenario files to emit")
    p.set_defaults(func=cmd_gen_synthetic)

    p = sub.add_parser("label", help="label a quality-grid CSV")
    common(p, margin=True)
    p.add_argument("--grids", required=True, help="quality-grid CSV path")
    p.set_defaults(func=cmd_label)

    p = sub.add_parser("train", help="train the mode predictor")
    common(p)
    p.add_argument("--data", required=True, help="training CSV path")
    train_defaults = predictor.TrainConfig()
    p.add_argument("--epochs", type=int, default=train_defaults.epochs)
    p.add_argument("--batch-size", type=int, default=train_defaults.batch_size)
    p.add_argument("--lr", type=float, default=predictor.DEFAULT_LEARNING_RATE)
    p.add_argument("--holdout", type=float, default=0.2,
                   help="held-out fraction for reporting")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("evaluate", help="evaluate a model on labeled rows")
    common(p)
    p.add_argument("--model", required=True, help="model JSON path")
    p.add_argument("--data", required=True, help="labeled CSV path")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("simulate", help="run a predictor-driven session")
    common(p)
    p.add_argument("--scenario", required=True, help="scenario JSON path")
    p.add_argument("--model", required=True, help="model JSON path")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("compare", help="compare fixed and adaptive policies")
    common(p, margin=True)
    p.add_argument("--scenario", required=True, help="scenario JSON path")
    p.set_defaults(func=cmd_compare)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # A bad config fails every subcommand alike, before any output.
        cfg = load_config(args.config)
        if "margin" in args and not args.margin >= 0:  # before any input or output
            raise ArgumentError("margin must be >= 0")
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        return args.func(args, cfg, out)
    except ArgumentError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ARGUMENT
    except SchemaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SCHEMA
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
