"""Command-line front end.

Subcommands: generate, profile, powers (brute | vdw | sturmian), verify.
Recipes are given inline as JSON, as a path to a JSON file, or as a preset
name; slopes likewise (presets ``golden`` and ``sqrt2``).  Outputs are
byte-deterministic for a given configuration.  ``profile --jobs N`` is
accepted for compatibility with existing command lines and ignored: the
profile is one pass that threads would not speed up.

Exit codes: 0 success/pass, 1 check failure or empty search, 2 usage
error, 3 resource or precision exhaustion.
"""

import argparse
import json
import os
import sys
from functools import partial

from . import checks, complexity, powers, words
from .contfrac import ContinuedFraction, InsufficientPrecisionError
from .words import BudgetError

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_RESOURCE = 3

SLOPE_PRESETS = {
    "golden": {"preperiod": [2], "period": [1]},   # (3 - sqrt 5)/2
    "sqrt2": {"preperiod": [], "period": [2]},     # sqrt 2 - 1
}

RECIPE_PRESETS = {
    "tm": {"kind": "fixed-point", "morphism": {"0": "01", "1": "10"}, "seed": "0"},
    "fibonacci": {"kind": "characteristic", "slope": SLOPE_PRESETS["golden"]},
    "sqrt2-characteristic": {"kind": "characteristic", "slope": SLOPE_PRESETS["sqrt2"]},
    "champernowne": {"kind": "champernowne"},
    "max-complexity": {"kind": "max-complexity"},
    "periodic01": {"kind": "periodic", "pattern": "01"},
    "const0": {"kind": "periodic", "pattern": "0"},
    "hubert-golden": {"kind": "hubert", "slope": SLOPE_PRESETS["golden"]},
    "rauzy-morphism": {"kind": "fixed-point", "morphism": {"0": "01", "1": "0"},
                       "seed": "0", "post": {"0": "012", "1": "021"}},
    "tribonacci": {"kind": "fixed-point",
                   "morphism": {"0": "01", "1": "02", "2": "0"}, "seed": "0"},
}


class UsageError(ValueError):
    pass


def _load(kind: str, presets: dict, parse, spec: str):
    """A preset name, inline JSON or a JSON file, parsed by ``parse``."""
    if spec in presets:
        return parse(presets[spec])
    inline = spec.lstrip().startswith("{")
    if not inline and not os.path.exists(spec):
        raise UsageError(
            f"{kind} {spec!r} is not a preset, inline JSON, or readable file")
    try:
        if inline:
            text = spec
        else:
            with open(spec, encoding="utf-8") as fh:
                text = fh.read()
        return parse(json.loads(text))
    except OSError as exc:
        raise UsageError(
            f"cannot read {kind} file {spec!r}: {exc.strerror or exc}") from exc
    except (ValueError, KeyError, TypeError) as exc:
        raise UsageError(f"bad {kind}: {exc}") from exc
    except RecursionError as exc:  # json.loads on too deep a nesting
        raise UsageError(f"bad {kind}: nested too deeply") from exc


_load_recipe = partial(_load, "recipe", RECIPE_PRESETS, words.recipe_from_dict)
_load_slope = partial(_load, "slope", SLOPE_PRESETS, ContinuedFraction.from_dict)


def _emit(text: str, out_path):
    if out_path is not None:
        try:
            with open(out_path, "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
        except OSError as exc:
            raise UsageError(
                f"cannot write {out_path}: {exc.strerror or exc}") from exc
    else:
        sys.stdout.write(text)


def cmd_generate(args) -> int:
    recipe = _load_recipe(args.recipe)
    w = words.prefix_of(recipe, args.len)
    _emit(w.digits("\n"), args.out)
    return EXIT_OK


def cmd_profile(args) -> int:
    w = checks.inspected_prefix(_load_recipe(args.recipe), args.nmax,
                                args.prefix_len)
    prof = complexity.profile(w, args.nmax)
    lines = ["n,rho_ab,rho,balance_running"]
    rows = zip(prof.rho_ab, prof.rho, prof.balance_running)
    for n, (rho_ab, rho, running) in enumerate(rows, 1):
        lines.append(f"{n},{rho_ab},{rho},{running}")
    _emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK


def _certificate(occ, recipe_dict) -> str:
    d = occ.to_dict()
    d["recipe"] = recipe_dict
    return json.dumps(d) + "\n"


def cmd_powers(args) -> int:
    if args.mode == "sturmian":
        if not args.slope:
            raise UsageError("sturmian mode needs --slope")
        slope = _load_slope(args.slope)
        pos = 1 if args.pos is None else args.pos  # 1-based position
        occ = powers.sturmian_power_at(slope, pos, args.k)
        recipe = words.recipe_to_dict(words.Characteristic(slope))
        _emit(_certificate(occ, recipe), args.out)
        return EXIT_OK
    if not args.recipe:
        raise UsageError(f"{args.mode} mode needs --recipe")
    recipe = _load_recipe(args.recipe)
    w = words.prefix_of(recipe, args.prefix_len)
    if args.mode == "brute":
        start = args.pos or 0  # 0-based start
        if not 0 <= start < len(w):
            raise UsageError(f"--pos {start} is outside the prefix "
                             f"(0-based, length {len(w)})")
        ell = powers.min_abelian_period(w, start, args.k)
        if ell is None:
            _emit("no abelian power found within the prefix\n", args.out)
            return EXIT_FAIL
        occ = powers.AbelianPowerOccurrence(
            start, ell, args.k,
            complexity.parikh(w.symbols[start:start + ell], w.alphabet_size))
    else:  # vdw
        weights = powers.congo_weights(args.M, w.alphabet_size)
        occ = powers.vdw_power_search(w, args.k, weights)
        if occ is None:
            _emit("no abelian power found within the prefix\n", args.out)
            return EXIT_FAIL
    if not powers.verify_abelian_power(w, occ.start, occ.period, occ.exponent):
        raise AssertionError("certificate failed re-verification before write")
    _emit(_certificate(occ, words.recipe_to_dict(recipe)), args.out)
    return EXIT_OK


def _report_lines(reports):
    lines = []
    for r in reports:
        line = f"{r.verdict.upper()} claim={r.claim} range={r.range_checked}"
        if r.witness is not None:
            line += f" witness={r.witness}"
        lines.append(line)
    return lines


def _report_csv(reports) -> str:
    rows = ["claim,range,verdict,witness"]
    for r in reports:
        wtxt = "" if r.witness is None else json.dumps(r.witness, default=repr).replace('"', "'")
        rows.append(f'{r.claim},{r.range_checked},{r.verdict},"{wtxt}"')
    return "\n".join(rows) + "\n"


def cmd_verify(args) -> int:
    n_max = args.nmax
    if args.claim == "thue-morse":
        w = checks.inspected_prefix(_load_recipe("tm"), n_max)
        reports = [checks.tm_profile_check(w, n_max)]
    elif args.claim == "rauzy":
        preset = "hubert-golden" if args.variant == "hubert" else "rauzy-morphism"
        reports = [checks.rauzy_constant3_check(_load_recipe(preset), n_max)]
    elif args.claim == "periodicity":
        if not args.recipe or args.p is None:
            raise UsageError("periodicity needs --recipe and --p")
        w = words.prefix_of(_load_recipe(args.recipe), max(64, 8 * args.p))
        reports = [checks.periodicity_via_parikh(w, args.p)]
    else:
        raise UsageError(f"unknown claim {args.claim!r} "
                         "(known: thue-morse, rauzy, periodicity)")
    for line in _report_lines(reports):
        print(line)
    if args.out is not None:
        _emit(_report_csv(reports), args.out)
    return EXIT_OK if all(r.passed for r in reports) else EXIT_FAIL


def build_parser():
    parser = argparse.ArgumentParser(
        prog="abelianwords",
        description="Generate word prefixes, compute complexity profiles, "
                    "and find Abelian powers.")
    parser.add_argument("--config", help="JSON file with flag defaults")
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="write a prefix as a digit string")
    g.add_argument("--recipe", required=True)
    g.add_argument("--len", type=int, required=True)
    g.add_argument("--out")
    g.set_defaults(func=cmd_generate)

    p = sub.add_parser("profile", help="CSV of n, rho_ab, rho, running balance")
    p.add_argument("--recipe", required=True)
    p.add_argument("--nmax", type=int, required=True)
    p.add_argument("--prefix-len", type=int, dest="prefix_len",
                   help="length of the prefix to profile, on which "
                        "refusals are decided; where the recipe has a "
                        "known bound only its head holding every factor "
                        "of length <= nmax is read (default: that head, "
                        "capped at 64 * nmax)")
    p.add_argument("--jobs", type=int, default=1,
                   help="accepted and ignored (the profile is one pass)")
    p.add_argument("--out")
    p.set_defaults(func=cmd_profile)

    w = sub.add_parser("powers", help="emit a verified Abelian power certificate")
    w.add_argument("mode", choices=["brute", "vdw", "sturmian"])
    w.add_argument("--recipe")
    w.add_argument("--slope")
    w.add_argument("--k", type=int, required=True)
    w.add_argument("--pos", type=int,
                   help="0-based start for brute, 1-based position for sturmian")
    w.add_argument("--M", type=int, default=1)
    w.add_argument("--prefix-len", type=int, dest="prefix_len", default=1 << 16)
    w.add_argument("--out")
    w.set_defaults(func=cmd_powers)

    v = sub.add_parser("verify", help="run a named claim suite")
    v.add_argument("claim")
    v.add_argument("--nmax", type=int, default=256)
    v.add_argument("--recipe")
    v.add_argument("--p", type=int)
    v.add_argument("--variant", choices=["hubert", "morphism"], default="hubert")
    v.add_argument("--out")
    v.set_defaults(func=cmd_verify)

    return parser, sub.choices


def _config_value(action, key, val):
    """A config value converted and checked as argparse treats the flag's
    text: strings go through the flag's type, other values must already
    have it (a JSON bool is not an int)."""
    want = action.type or str
    if isinstance(val, str) and want is not str:
        try:
            val = want(val)
        except ValueError as exc:
            raise UsageError(f"config {key!r}: {exc}") from exc
    if type(val) is not want:
        raise UsageError(f"config {key!r}: expected {want.__name__}, "
                         f"got {type(val).__name__}")
    if action.choices is not None and val not in action.choices:
        raise UsageError(f"config {key!r}: {val!r} is not one of "
                         f"{', '.join(map(str, action.choices))}")
    return val


def _apply_config(subparser, args):
    """Fill flags still at their defaults from a JSON config file."""
    if not args.config:
        return args
    try:
        with open(args.config, encoding="utf-8") as fh:
            defaults = json.load(fh)
    except OSError as exc:
        raise UsageError(f"cannot read config: {exc}") from exc
    if not isinstance(defaults, dict):
        raise UsageError("config must be a JSON object")
    actions = {a.dest: a for a in subparser._actions}
    for key, val in defaults.items():
        action = actions.get(key.replace("-", "_"))
        if action is None or action.dest == "help":
            continue
        if getattr(args, action.dest) == subparser.get_default(action.dest):
            setattr(args, action.dest, _config_value(action, key, val))
    return args


def main(argv=None) -> int:
    parser, subparsers = build_parser()
    args = parser.parse_args(argv)
    try:
        args = _apply_config(subparsers[args.command], args)
        return args.func(args)
    except (ValueError, KeyError) as exc:  # UsageError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (InsufficientPrecisionError, BudgetError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RESOURCE


def entry():
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
