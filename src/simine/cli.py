"""Command-line surface: fit, mine, baselines, synth.

Reports are line-delimited JSON records (the canonical form); ``--table``
additionally prints a human-readable table to stderr.  Exit codes: 0 success
with patterns, 3 success but empty, 1 input error, 2 fit failure.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys

import numpy as np

from . import __version__
from .background import (BackgroundModel, FitError, fit_block_prior,
                         fit_degree_prior, fit_density_prior)
from .descriptions import (DescriptionError, SelectorConfig, generate_selectors)
from .graph import GraphFormatError, LoadOptions, load_graph, save_graph
from .scores import MEASURE_NAMES, ScoreConstants
from .search import (SearchConfig, baseline_search, beam_search_single,
                     iterate, nested_beam_search)
from .synth import PlantedBlock, SynthConfig, generate_synthetic, write_manifest

log = logging.getLogger("simine")

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_FIT = 2
EXIT_EMPTY = 3


class InputError(ValueError):
    pass


def _add_data_args(p):
    p.add_argument("--edges", required=True, help="edge list file (u v per line)")
    p.add_argument("--attrs", required=True, help="delimited attribute table")
    p.add_argument("--delimiter", default=",", help="attribute table delimiter")
    p.add_argument("--tab", action="store_true", help="tab-delimited attribute table")
    p.add_argument("--id-col", default=None, help="id column name or index (default: first)")
    p.add_argument("--directed", action="store_true")
    p.add_argument("--numeric-bins", type=int, default=6,
                   help="equal-frequency bins for interval selectors")


def _add_model_args(p):
    p.add_argument("--prior", default=None,
                   help="degree | density:<v> | blocks:<attr>[,<attr>...][+degree]")
    p.add_argument("--model", default=None, help="previously fitted model file")
    p.add_argument("--tol", type=float, default=1e-4)
    p.add_argument("--max-iter", type=int, default=500)


def _add_score_args(p):
    p.add_argument("--alpha", type=float, default=0.3)
    p.add_argument("--beta", type=float, default=0.5)
    p.add_argument("--pair-counting", default="auto",
                   choices=["auto", "ordered", "unordered"])


def _add_search_args(p, nested):
    p.add_argument("--width", type=int, default=20, help="single-subgroup beam width")
    p.add_argument("--depth", type=int, default=2)
    p.add_argument("--min-size", type=int, default=1)
    if not nested:
        return
    p.add_argument("--x1", type=int, default=8, help="outer diversity floor")
    p.add_argument("--x2", type=int, default=6, help="inner beam width")
    p.add_argument("--shared-attr", action="store_true",
                   help="require one shared attribute with different values")
    p.add_argument("--disjoint", action="store_true",
                   help="require disjoint extensions")


class _Parser(argparse.ArgumentParser):
    """An argument parser that keeps its own map from destination to action,
    so a config file value can be typed by the action of its flag, and whose
    usage errors are input errors."""

    def __init__(self, *args, **kwargs):
        self.flags = {}
        super().__init__(*args, **kwargs)

    def add_argument(self, *args, **kwargs):
        action = super().add_argument(*args, **kwargs)
        self.flags[action.dest] = action
        return action

    def error(self, message):
        raise InputError(message)


def build_parser():
    """The ``simine`` parser and its subcommand parsers by name."""
    parser = _Parser(prog="simine",
                     description="Subjectively interesting subgroup patterns in "
                                 "attributed graphs")
    parser.add_argument("--version", action="version", version=f"simine {__version__}")
    parser.add_argument("--config", default=None,
                        help="key=value config file; flags override it")
    parser.add_argument("--verbose", action="store_true")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fit", help="fit a background model and write it to a file")
    _add_data_args(p)
    _add_model_args(p)
    p.add_argument("--output", default="model.json")

    p = sub.add_parser("mine", help="mine single- or bi-subgroup patterns")
    _add_data_args(p)
    _add_model_args(p)
    _add_score_args(p)
    _add_search_args(p, nested=True)
    p.add_argument("--mode", default="bi", help="single | bi | iterate:<rounds>")
    p.add_argument("--absorb", type=int, default=1,
                   help="patterns absorbed per iterate round (>= 1)")
    p.add_argument("--top", type=int, default=0, help="cap printed patterns (0 = all)")
    p.add_argument("--output", default="-")
    p.add_argument("--table", action="store_true", help="also print an aligned table")

    p = sub.add_parser("baselines", help="rank subgroups by objective measures")
    _add_data_args(p)
    _add_search_args(p, nested=False)
    p.add_argument("--measures", default=",".join(MEASURE_NAMES))
    p.add_argument("--edge-surplus-alpha", type=float, default=1.0 / 3.0)
    p.add_argument("--top", type=int, default=4)
    p.add_argument("--output", default="-")
    p.add_argument("--table", action="store_true")

    p = sub.add_parser("synth", help="generate a synthetic planted-block dataset")
    p.add_argument("--n", type=int, default=400)
    p.add_argument("--bg-density", type=float, default=0.02)
    p.add_argument("--block", action="append", default=[],
                   help="attr=val:size,attr=val:size,density (repeatable)")
    p.add_argument("--noise-attrs", type=int, default=2)
    p.add_argument("--noise-values", type=int, default=3)
    p.add_argument("--numeric-attrs", type=int, default=0)
    p.add_argument("--pair-tags", type=int, default=0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out-prefix", default="synth")

    return parser, sub.choices


_CONFIG_BOOL = {"true": True, "1": True, "yes": True,
                "false": False, "0": False, "no": False}


def _config_pairs(path):
    """``(line number, key, value)`` of every ``key=value`` line of a config file."""
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise InputError(f"{path}:{lineno}: expected key=value")
            key, _, value = line.partition("=")
            yield lineno, key.strip(), value.strip()


def _dest(key):
    return key.replace("-", "_")


def _config_defaults(parser, path, pairs):
    """The config file's values for the flags of one parser, each typed and
    stored by its flag's own action; keys the parser lacks (flags of another
    subcommand) are skipped."""
    ns = argparse.Namespace()
    for lineno, key, text in pairs:
        action = parser.flags.get(_dest(key))
        if action is None or action.default == argparse.SUPPRESS:
            continue
        where = f"{path}:{lineno}: {key}"
        if action.nargs == 0:  # a switch such as --tab
            if text.lower() not in _CONFIG_BOOL:
                raise InputError(f"{where}: expected true or false, got {text!r}")
            if _CONFIG_BOOL[text.lower()]:
                action(parser, ns, None)
            continue
        try:
            value = action.type(text) if action.type else text
        except ValueError:
            raise InputError(f"{where}: invalid value {text!r}") from None
        if action.choices is not None and value not in action.choices:
            raise InputError(f"{where}: {value!r} is not one of {list(action.choices)}")
        action(parser, ns, value)
    return vars(ns)


def _apply_config_file(parser, commands, argv):
    """Pre-scan for --config and install its key=value pairs as defaults."""
    pre = _Parser(add_help=False)
    pre.add_argument("--config", default=None)
    known, _ = pre.parse_known_args(argv)
    if not known.config:
        return
    pairs = list(_config_pairs(known.config))
    parsers = (parser, *commands.values())
    for lineno, key, _ in pairs:
        if not any(_dest(key) in p.flags for p in parsers):
            raise InputError(f"{known.config}:{lineno}: unknown key {key!r}")
    for p in parsers:
        p.set_defaults(**_config_defaults(p, known.config, pairs))


def _load_graph(args):
    opts = LoadOptions(delimiter="\t" if args.tab else args.delimiter,
                       id_column=(int(args.id_col) if args.id_col and args.id_col.isdecimal()
                                  else args.id_col),
                       directed=args.directed)
    return load_graph(args.edges, args.attrs, opts)


def _fit_model(args, g):
    if getattr(args, "model", None):
        model = BackgroundModel.load(args.model)
        if model.graph_fingerprint is None:
            raise InputError(f"model file {args.model} does not name the graph it was "
                             "fitted on; re-run `simine fit` to rebuild the model")
        try:
            same = model.directed == g.directed and model.graph_fingerprint == g.fingerprint(
                [p.attribute for p in model.partitions])
        except KeyError:
            same = False
        if not same:
            raise InputError(f"model file {args.model} was fitted on another graph "
                             "(direction, labels, edges or partition columns differ); "
                             "re-run `simine fit` on this graph")
        return model
    spec = getattr(args, "prior", None)
    if not spec:
        raise InputError("need --prior or --model")
    if spec == "degree":
        return fit_degree_prior(g, tol=args.tol, max_iter=args.max_iter)
    if spec.startswith("density:"):
        try:
            density = float(spec.split(":", 1)[1])
        except ValueError:
            raise InputError(f"bad density prior {spec!r}") from None
        return fit_density_prior(g, density)
    if spec.startswith("blocks:"):
        body = spec.split(":", 1)[1]
        with_degrees = body.endswith("+degree")
        if with_degrees:
            body = body[:-len("+degree")]
        attrs = [a for a in body.split(",") if a]
        if not attrs:
            raise InputError("blocks prior needs at least one attribute")
        return fit_block_prior(g, attrs, with_degrees=with_degrees,
                               tol=args.tol, max_iter=args.max_iter)
    raise InputError(f"unknown prior spec {spec!r}")


def _search_config(args):
    return SearchConfig(beam_width=args.width, x1=args.x1, x2=args.x2,
                        depth=args.depth,
                        require_shared_attribute=args.shared_attr,
                        require_disjoint_extensions=args.disjoint,
                        min_extension_size=args.min_size,
                        constants=ScoreConstants(alpha=args.alpha, beta=args.beta,
                                                 pair_counting=args.pair_counting))


class _Out:
    def __init__(self, path):
        self.path = path
        self.fh = sys.stdout if path == "-" else open(path, "w", encoding="utf-8")

    def record(self, obj):
        self.fh.write(json.dumps(obj, ensure_ascii=False))
        self.fh.write("\n")

    def close(self):
        if self.fh is not sys.stdout:
            self.fh.close()


def _pattern_record(pat, rank, round_no=None):
    rec = {"type": "pattern", "rank": rank}
    if round_no is not None:
        rec["round"] = round_no
    rec.update({
        "w1": str(pat.w1),
        "w2": None if pat.w2 is None else str(pat.w2),
        "size1": pat.size1,
        "size2": pat.size2,
        "i": pat.direction,
        "k_w": pat.edges,
        "n_w": pat.pair_slots,
        "pw_nw": pat.expected_edges,
        "ic": pat.ic,
        "dl": pat.dl,
        "si": pat.si,
        "convention": pat.convention,
    })
    if pat.inter_edges is not None:
        rec["inter_edges"] = pat.inter_edges
    return rec


def _print_table(rows, headers):
    if not rows:
        return
    widths = [max(len(h), max(len(str(r[i])) for r in rows)) for i, h in enumerate(headers)]
    fmt = "  ".join(f"{{:<{w}}}" for w in widths)
    print(fmt.format(*headers), file=sys.stderr)
    for r in rows:
        print(fmt.format(*[str(x) for x in r]), file=sys.stderr)


def cmd_fit(args):
    g = _load_graph(args)
    model = _fit_model(args, g)
    model.save(args.output)
    out = _Out("-")
    info = dict(model.fit_info)
    info.update({"type": "fit", "prior": model.prior, "output": args.output,
                 "n": g.n, "m": g.m})
    out.record(info)
    return EXIT_OK


def _run_header(args, g, model, extra=None):
    rec = {"type": "run", "command": args.command, "n": g.n, "m": g.m,
           "directed": g.directed, "prior": getattr(model, "prior", None),
           "alpha": args.alpha, "beta": args.beta,
           "pair_counting": args.pair_counting}
    rec.update(extra or {})
    return rec


def _mine(args, g, model, selectors, cfg):
    """Run the search ``--mode`` names; returns its header fields and the
    ranked patterns of each round (one round unless iterating)."""
    mode = args.mode
    nested = {"x1": args.x1, "x2": args.x2, "depth": args.depth,
              "selectors": len(selectors), "shared_attr": args.shared_attr,
              "disjoint": args.disjoint}
    if mode == "single":
        return ({"width": args.width, "depth": args.depth, "selectors": len(selectors)},
                [beam_search_single(g, model, selectors, cfg)])
    if mode == "bi":
        return nested, [nested_beam_search(g, model, selectors, cfg)]
    if mode.startswith("iterate:"):
        try:
            rounds = int(mode.split(":", 1)[1])
        except ValueError:
            raise InputError(f"bad mode {mode!r}") from None
        result = iterate(g, model, selectors, cfg, rounds=rounds, absorb=args.absorb)
        return {"rounds": rounds, "absorb": args.absorb, **nested}, result.rounds
    raise InputError(f"unknown mode {mode!r}")


def _check_top(args):
    if args.top < 0:
        raise InputError(f"--top must be >= 0, got {args.top}")


def cmd_mine(args):
    _check_top(args)
    g = _load_graph(args)
    model = _fit_model(args, g)
    selectors = generate_selectors(g, SelectorConfig(numeric_bins=args.numeric_bins))
    cfg = _search_config(args)
    out = _Out(args.output)
    try:
        fields, rounds = _mine(args, g, model, selectors, cfg)
        out.record(_run_header(args, g, model, {"mode": args.mode, **fields}))
        iterating = args.mode.startswith("iterate:")
        single = args.mode == "single"
        headers = (["rank", "w1"] + (["size"] if single else ["w2", "size1", "size2"])
                   + ["I", "k_w", "pw_nw", "si"])
        table_rows = []
        for t, patterns in enumerate(rounds, start=1):
            shown = patterns[:args.top] if args.top else patterns
            for i, pat in enumerate(shown, start=1):
                out.record(_pattern_record(pat, i, round_no=t if iterating else None))
                sides = [pat.size1] if single else [str(pat.w2), pat.size1, pat.size2]
                row = [i, str(pat.w1), *sides, pat.direction, pat.edges,
                       f"{pat.expected_edges:.3f}", f"{pat.si:.3f}"]
                table_rows.append([t, *row] if iterating else row)
        if args.table:
            _print_table(table_rows, ["round", *headers] if iterating else headers)
        return EXIT_OK if table_rows else EXIT_EMPTY
    finally:
        out.close()


def cmd_baselines(args):
    _check_top(args)
    g = _load_graph(args)
    selectors = generate_selectors(g, SelectorConfig(numeric_bins=args.numeric_bins))
    cfg = SearchConfig(beam_width=args.width, depth=args.depth, min_extension_size=args.min_size)
    measures = [m for m in args.measures.split(",") if m]
    for m in measures:
        if m not in MEASURE_NAMES:
            raise InputError(f"unknown measure {m!r}; choose from {MEASURE_NAMES}")
    # search before writing, so that a bad input leaves no report behind
    ranked = [(measure, baseline_search(g, selectors, cfg, measure,
                                        edge_surplus_alpha=args.edge_surplus_alpha))
              for measure in measures]
    out = _Out(args.output)
    try:
        out.record({"type": "run", "command": "baselines", "n": g.n, "m": g.m,
                    "measures": measures, "width": args.width, "depth": args.depth,
                    "edge_surplus_alpha": args.edge_surplus_alpha,
                    "selectors": len(selectors)})
        any_row = False
        for measure, results in ranked:
            rows = []
            for i, r in enumerate(results[:args.top], start=1):
                any_row = True
                value = r.value if np.isfinite(r.value) else "inf"
                out.record({"type": "baseline", "measure": measure, "rank": i,
                            "w": str(r.w), "size": r.size, "k_w": r.edges,
                            "inter_edges": r.inter_edges, "value": value})
                rows.append([measure, i, str(r.w), r.size, r.edges, r.inter_edges, value])
            if args.table:
                _print_table(rows, ["measure", "rank", "w", "size", "k_w",
                                    "inter", "value"])
        return EXIT_OK if any_row else EXIT_EMPTY
    finally:
        out.close()


def _parse_block(spec: str) -> PlantedBlock:
    parts = spec.split(",")
    if len(parts) != 3:
        raise InputError(f"block spec {spec!r} needs attr=val:size,attr=val:size,density")
    sides = []
    for side in parts[:2]:
        try:
            attr_val, size_s = side.rsplit(":", 1)
            attr, val = attr_val.split("=", 1)
            sides.append((attr, val, int(size_s)))
        except ValueError:
            raise InputError(f"bad block side {side!r}") from None
    try:
        density = float(parts[2])
    except ValueError:
        raise InputError(f"bad block density {parts[2]!r}") from None
    (a1, v1, s1), (a2, v2, s2) = sides
    return PlantedBlock(a1, v1, s1, a2, v2, s2, density)


def cmd_synth(args):
    cfg = SynthConfig(n=args.n, background_density=args.bg_density,
                      blocks=[_parse_block(s) for s in args.block],
                      noise_attrs=args.noise_attrs, noise_values=args.noise_values,
                      numeric_attrs=args.numeric_attrs, pair_tags=args.pair_tags,
                      seed=args.seed)
    g, manifest = generate_synthetic(cfg)
    edge_path = f"{args.out_prefix}.edges"
    attr_path = f"{args.out_prefix}.attrs.csv"
    manifest_path = f"{args.out_prefix}.manifest.json"
    save_graph(g, edge_path, attr_path)
    write_manifest(manifest, manifest_path)
    print(json.dumps({"type": "synth", "edges": edge_path, "attrs": attr_path,
                      "manifest": manifest_path, "n": g.n, "m": g.m}))
    return EXIT_OK


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser, commands = build_parser()
    try:
        _apply_config_file(parser, commands, argv)
        args = parser.parse_args(argv)
        logging.basicConfig(stream=sys.stderr,
                            level=logging.INFO if args.verbose else logging.WARNING,
                            format="%(levelname)s %(name)s: %(message)s")
        handler = {"fit": cmd_fit, "mine": cmd_mine, "baselines": cmd_baselines,
                   "synth": cmd_synth}[args.command]
        return handler(args)
    except (InputError, GraphFormatError, DescriptionError, FileNotFoundError,
            OSError, ValueError) as exc:
        print(f"simine: error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except FitError as exc:
        print(f"simine: fit failed: {exc}", file=sys.stderr)
        return EXIT_FIT


def entrypoint():
    raise SystemExit(main())


if __name__ == "__main__":
    entrypoint()
