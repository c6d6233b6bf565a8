"""Command-line entry points: run, tune, gen-corpus, kb-check."""

from __future__ import annotations

import argparse
import logging
import sys
from pathlib import Path

from .errors import FuzztermError, StageError
from .kb import BUNDLED_NAMES, check_completeness, dump_kb, load_bundled, load_kb, tune_afcc
from .pipeline import _stage, build_corpus, corpus_profiles, load_config, run
from .ingest import load_manifest
from .synth import generate_corpus


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fuzzterm",
        description="Fuzzy term weighting over HTML corpora with clustering evaluation.",
    )
    parser.add_argument("-v", "--verbose", action="store_true", help="debug logging")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute an experiment from a config file")
    p_run.add_argument("config", type=Path)
    p_run.add_argument("--out-dir", type=Path, default=None, help="override output directory")

    p_tune = sub.add_parser("tune", help="emit a distribution-tuned knowledge base")
    p_tune.add_argument("manifest", type=Path)
    p_tune.add_argument("--out", type=Path, default=Path("afcc.tuned.kb"))
    p_tune.add_argument(
        "--base", default="efcc", choices=BUNDLED_NAMES, help="base knowledge base"
    )

    p_gen = sub.add_parser("gen-corpus", help="generate a synthetic labeled corpus")
    p_gen.add_argument("out_dir", type=Path)
    p_gen.add_argument("--categories", type=int, default=4)
    p_gen.add_argument("--docs-per-category", type=int, default=50)
    p_gen.add_argument("--mode", choices=("zipf", "uniform"), default="zipf")
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--doc-length", type=int, nargs=2, default=(80, 160), metavar=("LO", "HI"))
    p_gen.add_argument("--title-rhetoric", type=int, default=0, help="off-topic words per title")
    p_gen.add_argument("--no-titles", action="store_true")
    p_gen.add_argument("--emphasis-prob", type=float, default=0.12)

    p_check = sub.add_parser("kb-check", help="validate knowledge-base completeness")
    p_check.add_argument(
        "kb", nargs="+", help=f"bundled name ({', '.join(BUNDLED_NAMES)}) or a file path"
    )
    p_check.add_argument(
        "--grid",
        type=int,
        default=21,
        help="grid points per axis; loading a base checks 21 already, so another "
        "grid adds a second check and cannot relax that one",
    )
    return parser


def _cmd_run(args) -> int:
    with _stage("config"):
        config = load_config(args.config)
    if args.out_dir is not None:
        config.out_dir = args.out_dir.resolve()
    report = run(config)
    print(report.table_path.read_text(encoding="utf-8"), end="")
    print(f"results: {report.results_path}")
    if report.tuned_kb_path:
        print(f"tuned kb: {report.tuned_kb_path}")
    return 0


def _cmd_tune(args) -> int:
    from .pipeline import RunConfig

    manifest = load_manifest(args.manifest)
    corpus = build_corpus(manifest, RunConfig(manifest=args.manifest))
    tuned = tune_afcc(load_bundled(args.base), corpus_profiles(corpus))
    dump_kb(tuned, args.out)
    print(f"wrote {args.out}")
    return 0


def _cmd_gen_corpus(args) -> int:
    manifest = generate_corpus(
        args.out_dir,
        categories=args.categories,
        docs_per_category=args.docs_per_category,
        mode=args.mode,
        seed=args.seed,
        doc_length=tuple(args.doc_length),
        with_titles=not args.no_titles,
        title_rhetoric=args.title_rhetoric,
        emphasis_prob=args.emphasis_prob,
    )
    print(f"wrote {manifest}")
    return 0


def _cmd_kb_check(args) -> int:
    for name in args.kb:
        kb = load_bundled(name) if name in BUNDLED_NAMES else load_kb(Path(name))
        if args.grid != 21:  # loading checked the 21-point grid
            check_completeness(kb, args.grid)
        print(
            f"{name}: complete over a {args.grid}^4 grid "
            f"({len(kb.rules)} main rules, {len(kb.aux_rules)} auxiliary)"
        )
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.INFO,
        format="%(levelname)s %(name)s: %(message)s",
        stream=sys.stderr,
    )
    commands = {
        "run": _cmd_run,
        "tune": _cmd_tune,
        "gen-corpus": _cmd_gen_corpus,
        "kb-check": _cmd_kb_check,
    }
    try:
        return commands[args.command](args)
    except StageError as exc:
        print(f"error[{exc.stage}]: {exc.detail}", file=sys.stderr)
        return 1
    except (FuzztermError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
