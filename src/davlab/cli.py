"""Command-line surface: info, loewy, davenport, witness, oracle, scan.

Every command accepts --json and then emits exactly one JSON document on
stdout. Exit code 0 means no assertion failed; parse errors exit 2. A
process runs `run`, which ends it with os._exit once the output is flushed;
in-process callers use `main(argv)`.

This module holds the dispatcher and scan. The five one-group commands live
in `onegroup`, which `main` imports only when one of them runs, and
`build_parser` builds the subparser of the command being run alone, so a
process compiles and parses only its own command.

At module level this imports only the modules that load no numpy
(descriptors, cache, errors, numtheory, theory, version). The others are
imported inside the code that needs them, and looked up there at call time:
- --help and a warm scan load none of them, nor onegroup;
- a cached davenport and loewy --method formula load onegroup alone;
- info, loewy, witness and oracle load onegroup, numpy and the table modules
  they use (groups and, as needed, subgroups, jennings, sequences,
  witnesses), but not the search engine zerosum;
- davenport loads onegroup, groups and zerosum;
- a cold scan loads the table modules of its rows, and zerosum only for a
  row that needs an exact D.
"""

from __future__ import annotations

import argparse
import collections
import functools
import itertools
import json
import operator
import os
import re
import sys
import time

from .cache import (VARIANT_INVARIANT, ResultRecord, cache_path, cache_put, cache_records,
                    check_writable, record_key, search_record)
# no code here calls cache_get: it stays a name of this module because
# davbench's trace mode wraps cli.cache_get and cli.cache_put
from .cache import cache_get  # noqa: F401
from .descriptors import (_PARAM_NAMES, _RULES, GRAMMAR_HINT, GroupDescriptor,
                          make_descriptor, validate_descriptor)
from .errors import DavlabError, DescriptorError
from .numtheory import is_prime, prime_power
from .theory import (COVERAGE, DEFAULT_ORDERED_CAP, ORDER_CAP, constructions, olson_white,
                     witness_plan)
from .version import __version__


def _ms(t0: float) -> int:
    """Whole milliseconds since the perf_counter reading t0."""
    return int(1000 * (time.perf_counter() - t0))


def _positive(kind):
    """argparse type: a number of the given kind that is above zero."""
    def parse(text: str):
        value = kind(text)
        if not value > 0:
            raise argparse.ArgumentTypeError(f"must be positive, got {text}")
        return value
    parse.__name__ = kind.__name__  # argparse says 'invalid int value' with it
    return parse


def _families(text: str) -> str:
    """argparse type of --families: a comma list that names at least one
    family, so that a scan of nothing is a usage error."""
    if not text.replace(",", "").strip():
        raise argparse.ArgumentTypeError(f"expected a comma list of families, got {text!r}")
    return text


def _odd_primes(text: str) -> list[int]:
    """argparse type of --primes: a comma list of odd primes up to ORDER_CAP
    (a g-family group has order at least p^3, so no larger p builds)."""
    try:
        primes = [int(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        primes = []
    if not primes or not all(2 < p <= ORDER_CAP and is_prime(p) for p in primes):
        raise argparse.ArgumentTypeError(
            f"expected a comma list of odd primes up to {ORDER_CAP}, got {text!r}")
    return list(dict.fromkeys(primes))


def _order_from(lowest: int):
    """argparse type of --max-order and --search-max-order: an integer from
    lowest to ORDER_CAP, as no larger group builds."""
    def parse(text: str) -> int:
        if not (text.isdecimal() and lowest <= int(text) <= ORDER_CAP):
            raise argparse.ArgumentTypeError(
                f"expected an integer from {lowest} to {ORDER_CAP}, got {text!r}")
        return int(text)
    return parse


# --- scan ------------------------------------------------------------------------

_RANGE_RE = re.compile(r"^([a-z]+)(<=|>=|=)(\d+)$")


def _parse_param_ranges(text: str | None):
    if not text:
        return []
    out = []
    for token in text.split(","):
        m = _RANGE_RE.match(token.strip())
        if not m:
            raise DescriptorError(
                f"bad param range {token!r}; expected name=val, name<=val or name>=val")
        out.append((m.group(1), m.group(2), int(m.group(3))))
    return out


_RANGE_OPS = {"=": operator.eq, "<=": operator.le, ">=": operator.ge}


def _range_ok(desc: GroupDescriptor, ranges) -> bool:
    """Whether desc meets every range on a parameter its family carries."""
    pmap = desc.pmap
    return all(name not in pmap or _RANGE_OPS[op](pmap[name], value)
               for name, op, value in ranges)


def _candidates(family: str, primes: list[int], max_order: int) -> list[tuple[int, ...]]:
    """The raw parameter values scan tries for family, in row order: each
    order up to max_order, the 2-powers first, or each prime with its
    exponent tuples in lexicographic order, each exponent e with p^e at most
    max_order."""
    names = _PARAM_NAMES.get(family)
    if names == ("order",):
        twos = [1 << k for k in range(max_order.bit_length())]
        return [(n,) for n in twos + [n for n in range(1, max_order + 1) if n & (n - 1)]]
    if names and names[0] == "p":
        return [(p, *exps) for p in primes for exps in itertools.product(
            [e for e in range(1, max_order.bit_length()) if p ** e <= max_order],
            repeat=len(names) - 1)]
    raise DescriptorError(f"scan does not cover family {family!r}")


def _grid(families: list[str], primes: list[int], max_order: int, ranges):
    """Every valid descriptor of the requested families up to max_order that
    a witness construction covers and that meets the ranges, each of which
    some requested family must carry. A candidate is tested against its
    family's rules on its raw values before any descriptor is built; the few
    that pass and fit max_order are validated in full."""
    grid: list[GroupDescriptor] = []
    for family in families:
        candidates = _candidates(family, primes, max_order)
        for _, holds in _RULES[family]:
            candidates = [values for values in candidates if holds(*values)]
        for values in candidates:
            desc = make_descriptor(family, *values)
            if desc.theoretical_order() <= max_order:
                validate_descriptor(desc)
                if constructions(desc):
                    grid.append(desc)
    for name, op, value in ranges:
        if all(name not in _PARAM_NAMES[f] for f in families):
            carried = "; ".join(f"{f}: {', '.join(_PARAM_NAMES[f])}" for f in families)
            raise DescriptorError(f"param range {name}{op}{value} names no parameter of "
                                  f"the requested families ({carried})")
    return [desc for desc in grid if _range_ok(desc, ranges)]


def _is_p_group(order: int) -> bool:
    return prime_power(order) is not None


def _needed(desc: GroupDescriptor, search_max_order: int) -> tuple[str, ...]:
    """The invariants scan_row reads: the Loewy length bounds a p-group from
    above, a witness check bounds D from below (a construction covers every
    grid row), and D itself is searched at or below search_max_order."""
    order = desc.theoretical_order()
    needed = ["L", "witness_check"] if _is_p_group(order) else ["witness_check"]
    if order <= search_max_order:
        needed.append("D")
    return tuple(needed)


def scan_row(desc: GroupDescriptor, records: dict[str, ResultRecord],
             cached: bool, elapsed_ms: int = 0) -> dict:
    """One scan row from the records of its needed invariants (_needed),
    each read from the cache or computed for this row. The upper bound is
    the Loewy length of a p-group; every other row is dicyclic or
    semidihedral, never cyclic, as the grid holds only the descriptors a
    witness construction covers, and takes Olson-White. The lower bound is
    the larger of a verified witness and an exact D. The verdict reads the
    bounds alone: REFUTED when they cross or an exact D misses the upper
    bound, CONFIRMED when they meet, CONSISTENT otherwise."""
    order = desc.theoretical_order()
    if _is_p_group(order):
        upper, upper_source = int(records["L"].value), "loewy_length"
    else:
        upper, upper_source = olson_white(order), "olson_white"

    lower, lower_source = 1, "trivial"
    witness = records.get("witness_check")
    if witness is not None and witness.exact and int(witness.value) > lower:
        lower = int(witness.value)
        lower_source = "witness" if witness_plan(desc)[1] else "witness(out-of-scope)"

    exact_D = None
    search = records.get("D")
    if search is not None and search.exact:
        exact_D = int(search.value)
        if exact_D > lower:
            lower, lower_source = exact_D, "search"

    if lower > upper or exact_D not in (None, upper):
        status = "REFUTED"
    else:
        status = "CONFIRMED" if lower == upper else "CONSISTENT"
    return {
        "descriptor": desc.canonical(),
        "order": order,
        "lower": lower,
        "lower_source": lower_source,
        "upper": upper,
        "upper_source": upper_source,
        "exact_value": exact_D,
        "status": status,
        "cached": cached,
        "elapsed_ms": elapsed_ms,
    }


def _row_records(desc: GroupDescriptor, missing: list[str],
                 budget) -> tuple[list[ResultRecord], int]:
    """Compute the missing records of one scan row: (records, elapsed ms)."""
    from . import groups, jennings, sequences, witnesses
    if "D" in missing:
        from . import zerosum  # the search engine, which only a row with D loads
    t0 = time.perf_counter()
    canonical = desc.canonical()
    group = groups.build(desc)
    records = []
    if "L" in missing:
        records.append(ResultRecord(canonical, "L", jennings.loewy_length(group), True))
    if "witness_check" in missing:
        spec = witnesses.witness_for_theorem(desc, witness_plan(desc)[0],
                                             allow_unverified=True)
        free = sequences.is_ordered_free(spec.sequence(group))
        records.append(ResultRecord(
            canonical, "witness_check", spec.length + 1 if free else 1, free,
            witness=spec.block_labels(group)))
    if "D" in missing:
        records.append(search_record(canonical, "D", zerosum.davenport_ordered(group, budget)))
    return records, _ms(t0)


def _cmd_scan(args) -> int:
    families = list(dict.fromkeys(f.strip() for f in args.families.split(",") if f.strip()))
    ranges = _parse_param_ranges(args.param_ranges)
    grid = _grid(families, args.primes, args.max_order, ranges)
    needs = [_needed(desc, args.search_max_order) for desc in grid]
    if args.budget_states is None and args.budget_seconds is None:
        for desc, needed in zip(grid, needs):
            if "D" in needed and desc.theoretical_order() > DEFAULT_ORDERED_CAP:
                raise DescriptorError(
                    f"{desc.canonical()}: order {desc.theoretical_order()} above "
                    f"search cap {DEFAULT_ORDERED_CAP}; lower --search-max-order "
                    "or pass --budget-states/--budget-seconds")
    path = cache_path(args.cache)
    t0 = time.perf_counter()
    keys = [[record_key(desc.canonical(), inv) for inv in needed]
            for desc, needed in zip(grid, needs)]
    found = {} if args.no_cache else cache_records(path, [k for ks in keys for k in ks])
    known = [{r.invariant: r for r in map(found.get, ks) if r is not None} for ks in keys]
    missing = [[inv for inv in needed if inv not in have]
               for needed, have in zip(needs, known)]
    if any(missing) and not args.no_cache:
        check_writable(path)  # before the first row is computed, not after it
    budget = None
    if any("D" in need for need in missing):
        from . import zerosum  # the search engine, which only a row with D loads
        budget = zerosum.budget_from(args.budget_states, args.budget_seconds)
    rows = []
    for desc, need, have in zip(grid, missing, known):
        spent = 0
        if need:
            records, spent = _row_records(desc, need, budget)
            # put as each row finishes, so an interrupted scan keeps its rows
            for record in records:
                have[record.invariant] = record
                if not args.no_cache:
                    cache_put(path, record)
        rows.append(scan_row(desc, have, not need, spent))
    elapsed_ms = _ms(t0)
    counts = collections.Counter(r["status"] for r in rows)

    if args.json:
        print(json.dumps({"rows": rows, "elapsed_ms": elapsed_ms,
                          "version": __version__}, indent=2, sort_keys=True))
    elif args.csv:
        import csv
        writer = csv.DictWriter(sys.stdout, fieldnames=list(rows[0].keys()) if rows
                                else ["descriptor"])
        writer.writeheader()
        for row in rows:
            writer.writerow(row)
    else:
        header = f"{'descriptor':<18} {'order':>5} {'lower':>5} {'upper':>5} " \
                 f"{'status':<10} sources"
        print(header)
        for r in rows:
            print(f"{r['descriptor']:<18} {r['order']:>5} {r['lower']:>5} "
                  f"{r['upper']:>5} {r['status']:<10} "
                  f"{r['lower_source']}/{r['upper_source']}"
                  + (" [cached]" if r["cached"] else ""))
        print(f"summary: {len(rows)} rows, {counts['CONFIRMED']} CONFIRMED, "
              f"{counts['CONSISTENT']} CONSISTENT, {counts['REFUTED']} REFUTED "
              f"({elapsed_ms} ms)")
    return 1 if counts["REFUTED"] else 0


# --- entry point ------------------------------------------------------------------

def _add_common(sub, cache_flags: bool = False, budget_flags: bool = False,
                csv_flag: bool = False):
    output = sub.add_mutually_exclusive_group()
    output.add_argument("--json", action="store_true", help="emit one JSON document")
    if csv_flag:
        output.add_argument("--csv", action="store_true", help="CSV table output")
    if cache_flags:
        sub.add_argument("--cache", default=None,
                         help="cache file (default $DAVLAB_CACHE or ./davlab-cache.jsonl)")
        sub.add_argument("--no-cache", action="store_true",
                         help="skip cache reads and writes")
    if budget_flags:
        sub.add_argument("--budget-states", type=_positive(int), default=None,
                         help="search state budget, counted in orbit representatives "
                              "for D, D_A and E (allows larger groups; inexact on trip)")
        sub.add_argument("--budget-seconds", type=_positive(float), default=None,
                         help="search time budget in seconds")


# One parser per command, built on first use: main() may run many times in one
# process (tests, library callers), and every fresh parser leaves cyclic
# garbage behind.
@functools.cache
def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser of `davlab command ...`: the top-level parser with the
    subparser of command alone, so that a process builds only the command it
    runs, or with all six when command is None or names none of them (no
    arguments, --help, --version, an unknown command). A parser of one command
    lists all six in its usage line, so every message reads as from the
    parser of all six."""
    parser = argparse.ArgumentParser(
        prog="davlab",
        description="Zero-sum invariants and Loewy lengths of small finite groups.",
        epilog=GRAMMAR_HINT)
    parser.add_argument("--version", action="version", version=__version__)
    subs = parser.add_subparsers(dest="command", required=True)
    names = []

    def add(name: str, summary: str):
        """The subparser of name, or None when this parser leaves it out."""
        names.append(name)
        return subs.add_parser(name, help=summary) if command in (None, name) else None

    if p := add("info", "order, exponent, center, class of a group"):
        p.add_argument("descriptor")
        _add_common(p)

    if p := add("loewy", "Loewy length, by chain and/or closed form"):
        p.add_argument("descriptor")
        p.add_argument("--method", choices=("direct", "formula", "both"), default="direct")
        _add_common(p)

    if p := add("davenport", "Davenport-type constants by exact search"):
        p.add_argument("descriptor")
        p.add_argument("--variant", choices=tuple(VARIANT_INVARIANT), default="ordered")
        p.add_argument("--weights", default=None, help="weight set for --variant=weighted")
        _add_common(p, cache_flags=True, budget_flags=True)

    if p := add("witness", "extremal product-one-free constructions"):
        p.add_argument("descriptor")
        p.add_argument("--theorem", type=int, choices=tuple(COVERAGE), required=True,
                       help="construction family: " + ", ".join(
                           f"{t} {summary}" for t, (_, summary) in COVERAGE.items()))
        p.add_argument("--verify", action="store_true",
                       help="check freeness (and the congruence oracle where it applies)")
        p.add_argument("--unverified-explore", action="store_true",
                       help="allow g1 gamma>1 / g3 sigma>1 exploration")
        _add_common(p)

    if p := add("oracle", "congruence-system enumeration for g1/g3"):
        p.add_argument("descriptor")
        _add_common(p)

    if p := add("scan", "conjecture scan over descriptor grids"):
        p.add_argument("--families", type=_families, default="d,q,sd,m2,g1,g2,g3")
        p.add_argument("--primes", type=_odd_primes, default="3,5",
                       help="comma list of odd primes for the g families")
        p.add_argument("--max-order", type=_order_from(1), default=32)
        p.add_argument("--search-max-order", type=_order_from(0), default=16,
                       help="exact search only at or below this order")
        p.add_argument("--param-ranges", default=None,
                       help="comma list of filters, e.g. gamma=1,alpha<=3 "
                            "(ignored by families lacking the parameter)")
        _add_common(p, cache_flags=True, budget_flags=True, csv_flag=True)

    if command is None:
        return parser
    if command not in names:
        return build_parser()
    subs.metavar = "{" + ",".join(names) + "}"
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = build_parser(argv[0] if argv else None).parse_args(argv)
    try:
        if args.command == "scan":
            return _cmd_scan(args)
        from . import onegroup  # the other five commands; a scan never loads them
        return getattr(onegroup, args.command)(args)
    except DescriptorError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except DavlabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def run() -> None:
    """The process entry point of `python -m davlab.cli` and the installed
    `davlab` script: main(), then flush stdout and stderr and end the process
    with os._exit, so that it ends as soon as its output is written, without
    interpreter or numpy teardown. A BrokenPipeError (the reader closed
    stdout) exits 1 quietly; any other OSError that escapes main or the
    flush, such as a full disk, prints one `error:` line and exits 1.
    argparse's SystemExit (usage errors, --help, --version) and every other
    exception leave by the normal exit. In-process callers use main(argv).

    The fast exit is safe while nothing in davlab needs interpreter shutdown:
    every cache write is a `with open(...)` block, closed before cache_put
    returns, and davlab registers no atexit handler, starts no thread or
    process and uses no temporary file. Code that adds one must revisit this.
    """
    try:
        code = main()
        if sys.stdout is not None:  # None when the process started without fd 1
            sys.stdout.flush()
    except BrokenPipeError:
        code = 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        code = 1
    sys.stderr.flush()
    os._exit(code)


if __name__ == "__main__":
    run()
