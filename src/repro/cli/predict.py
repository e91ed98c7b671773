"""``predict``: train, evaluate and apply the online failure predictor.

Three nested sub-verbs -- ``train``, ``eval`` and ``score`` -- each with
the shared ``--jobs``/``--json``/obs groups.
"""

from __future__ import annotations

import argparse
import sys

from repro.cli._options import (
    add_ingest_policy,
    add_jobs,
    add_json,
    add_obs,
    add_predict_gates,
    check_writable,
    parse_axis,
    write_json,
)

_MODEL_HELP = "model artifact from 'predict train'"
_REPORT_HELP = "write the eval report (schemas/predict.schema.json) to PATH"


def register(p: argparse.ArgumentParser) -> None:
    sub = p.add_subparsers(dest="predict_command", required=True)

    train = sub.add_parser(
        "train",
        help="train on hazard-linked campaigns, evaluate held-out, "
        "write the model artifact",
    )
    train.add_argument(
        "--out", required=True, metavar="PATH",
        help="where to write the model artifact (CRC-guarded JSON)",
    )
    train.add_argument(
        "--train-seeds", default=None, metavar="CSV",
        help="comma-separated training campaign seeds (default 101,102,103)",
    )
    train.add_argument(
        "--eval-seeds", default=None, metavar="CSV",
        help="comma-separated held-out campaign seeds (default 201,202); "
        "must be disjoint from --train-seeds",
    )
    train.add_argument(
        "--scale", type=float, default=0.02,
        help="campaign volume scale for the train/eval campaigns "
        "(default 0.02)",
    )
    train.add_argument(
        "--target-fpr", type=float, default=0.01, metavar="F",
        help="false-positive budget the alert threshold is set at "
        "(default 0.01)",
    )

    evaluate = sub.add_parser(
        "eval", help="re-evaluate a saved model on held-out campaigns and gate"
    )
    evaluate.add_argument("--model", required=True, metavar="PATH", help=_MODEL_HELP)
    evaluate.add_argument(
        "--seeds", default=None, metavar="CSV",
        help="comma-separated held-out campaign seeds (default: the "
        "eval seeds recorded in the artifact, else 201,202)",
    )
    evaluate.add_argument(
        "--scale", type=float, default=None,
        help="campaign volume scale (default: recorded in the artifact)",
    )
    evaluate.add_argument(
        "--target-fpr", type=float, default=None, metavar="F",
        help="false-positive budget (default: recorded in the artifact)",
    )
    for q in (train, evaluate):
        add_jobs(q, "build per-seed datasets")
        q.add_argument("--report", metavar="PATH", default=None, help=_REPORT_HELP)
        add_predict_gates(q)
        add_json(q, "the eval report")

    score = sub.add_parser(
        "score", help="score every CE-active node of a stored campaign"
    )
    score.add_argument("directory", help="campaign directory from 'synth'")
    score.add_argument("--model", required=True, metavar="PATH", help=_MODEL_HELP)
    score.add_argument(
        "--at", type=float, default=None, metavar="EPOCH",
        help="score using only records at or before this time "
        "(default: the whole campaign)",
    )
    score.add_argument(
        "--top", type=int, default=10, metavar="K",
        help="print the K highest-risk nodes (default 10)",
    )
    add_jobs(score, "extract features")
    score.add_argument(
        "--scores-out", metavar="PATH", default=None,
        help="write the full (node, score) table as JSON to PATH",
    )
    add_ingest_policy(score, "repair")
    add_json(score, "the score table")
    for q in (train, evaluate, score):
        add_obs(q)


def run(args) -> int:
    return {"train": _train, "eval": _eval, "score": _score}[
        args.predict_command
    ](args)


def _gates(report: dict, args) -> list[str]:
    """Evaluate the CI gate flags against an eval report."""
    failures = []
    model = report["model"]
    base = report["baseline"]
    if args.min_auc is not None and model["auc"] < args.min_auc:
        failures.append(
            f"held-out AUC {model['auc']:.4f} below --min-auc {args.min_auc}"
        )
    if args.min_recall is not None and model["recall_at_fpr"] < args.min_recall:
        failures.append(
            f"recall@{report['target_fpr']:g}FPR {model['recall_at_fpr']:.4f} "
            f"below --min-recall {args.min_recall}"
        )
    if args.require_beats_baseline:
        if model["auc"] <= base["auc"]:
            failures.append(
                f"model AUC {model['auc']:.4f} does not beat the rate-"
                f"threshold baseline {base['auc']:.4f}"
            )
        if model["recall_at_fpr"] < base["recall_at_fpr"]:
            failures.append(
                f"model recall@FPR {model['recall_at_fpr']:.4f} below the "
                f"baseline's {base['recall_at_fpr']:.4f}"
            )
    return failures


def _emit_report(report: dict, args, extra_lines=()) -> int:
    """Shared report rendering + gates for train/eval; returns exit code."""
    failures = _gates(report, args)
    if args.report:
        write_json(report, args.report)
    if args.json:
        write_json(report)
    else:
        m, b = report["model"], report["baseline"]
        print(
            f"held-out: AUC {m['auc']:.4f} (baseline {b['auc']:.4f}), "
            f"recall@{report['target_fpr']:g}FPR {m['recall_at_fpr']:.4f} "
            f"(baseline {b['recall_at_fpr']:.4f})"
        )
        print(
            f"operating point: precision {m['precision_at_threshold']:.4f}, "
            f"recall {m['recall_at_threshold']:.4f}"
        )
        lead = ", ".join(
            f"{e['lead_h']}h={e['recall']:.3f}" for e in m["lead_curve"]
        )
        print(f"lead-time recall: {lead}")
        for line in extra_lines:
            print(line)
        if args.report:
            print(f"wrote eval report to {args.report}")
    for failure in failures:
        print(f"gate FAILED: {failure}", file=sys.stderr)
    return 1 if failures else 0


def _seeds(raw, flag: str, default) -> tuple:
    return tuple(parse_axis(raw, int, flag)) if raw else tuple(default)


def _train(args) -> int:
    from repro.predict import EVAL_SEEDS, TRAIN_SEEDS, train_and_evaluate

    train_seeds = _seeds(args.train_seeds, "--train-seeds", TRAIN_SEEDS)
    eval_seeds = _seeds(args.eval_seeds, "--eval-seeds", EVAL_SEEDS)
    check_writable(args.report)
    model, report = train_and_evaluate(
        train_seeds=train_seeds,
        eval_seeds=eval_seeds,
        scale=args.scale,
        jobs=args.jobs,
        target_fpr=args.target_fpr,
    )
    model_id = model.save(args.out)
    extra = [
        f"wrote model {model_id} to {args.out} "
        f"(train seeds {list(train_seeds)}, eval seeds {list(eval_seeds)})"
    ]
    return _emit_report(report, args, extra)


def _eval(args) -> int:
    from repro.predict import (
        DatasetConfig,
        PredictError,
        build_seed_datasets,
        evaluate,
    )
    from repro.predict.model import Model
    from repro.predict.train import (
        EVAL_SEEDS,
        REPORT_SCHEMA_VERSION,
        _split_stats,
    )

    check_writable(args.report)
    model = Model.load(args.model)
    trained = model.trained
    seeds = _seeds(args.seeds, "--seeds", trained.get("eval_seeds", EVAL_SEEDS))
    train_seeds = set(map(int, trained.get("train_seeds", ())))
    overlap = train_seeds & set(map(int, seeds))
    if overlap:
        raise PredictError(
            f"eval seeds {sorted(overlap)} were in the model's training "
            f"set; hint: pick --seeds the model never saw"
        )
    scale = args.scale if args.scale is not None else float(
        trained.get("scale", 0.02)
    )
    target_fpr = args.target_fpr if args.target_fpr is not None else float(
        trained.get("target_fpr", 0.01)
    )
    config = (
        DatasetConfig.from_dict(trained["dataset"])
        if "dataset" in trained else DatasetConfig()
    )
    ds = build_seed_datasets(seeds, scale, config, args.jobs)
    results = evaluate(model, ds, target_fpr)
    report = {
        "schema": REPORT_SCHEMA_VERSION,
        "kind": "predict-eval",
        "model_id": model.model_id,
        "target_fpr": float(target_fpr),
        "scale": float(scale),
        "config": config.to_dict(),
        "train": {
            "seeds": sorted(train_seeds),
            "rows": int(trained.get("rows", 0)),
            "positives": int(trained.get("positives", 0)),
            "unseeable": 0,
        },
        "eval": _split_stats(ds, seeds),
        **results,
    }
    return _emit_report(report, args)


def _score(args) -> int:
    import numpy as np

    from repro.logs.campaign_io import load_campaign_records
    from repro.predict import score_records
    from repro.predict.model import Model

    check_writable(args.scores_out)
    model = Model.load(args.model)
    records = load_campaign_records(args.directory, policy=args.ingest_policy)
    nodes, scores = score_records(
        records.errors, records.het, model, at=args.at, jobs=args.jobs
    )
    doc = {
        "schema_version": 1,
        "kind": "predict-scores",
        "model_id": model.model_id,
        "threshold": float(model.threshold),
        "at": args.at,
        "directory": str(args.directory),
        "nodes": nodes.tolist(),
        "scores": scores.tolist(),
    }
    if args.scores_out:
        write_json(doc, args.scores_out)
    if args.json:
        write_json(doc)
        return 0
    order = np.lexsort((nodes, -scores))[: max(args.top, 0)]
    print(
        f"scored {nodes.size} node(s) with model {model.model_id} "
        f"(threshold {model.threshold:.4f})"
    )
    for rank, i in enumerate(order.tolist(), 1):
        flag = " AT RISK" if scores[i] >= model.threshold else ""
        print(f"  #{rank}: node {int(nodes[i])} score {scores[i]:.4f}{flag}")
    if args.scores_out:
        print(f"wrote scores to {args.scores_out}")
    return 0
