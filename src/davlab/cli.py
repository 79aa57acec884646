"""Command-line surface: info, loewy, davenport, witness, oracle, scan.

Every command accepts --json and then emits exactly one JSON document on
stdout. Every command but scan prints through `_emit`, which writes both
forms of a result: the six fields that schema.json requires of every result
document (descriptor, invariant, value, exact, elapsed_ms, version) beside
the command's own, and the `descriptor: <canonical>` line that starts its
text output. Exit code 0 means no assertion failed; parse errors exit 2.
A process runs `run`, which ends it with os._exit once the output is
flushed; in-process callers use `main(argv)`.

At module level this imports only the modules that load no numpy
(descriptors, cache, errors, numtheory, theory, version). The others are
imported inside the code that needs them, and looked up there at call time:
- a warm scan, a cached davenport, loewy --method formula and --help load
  none of them;
- info, loewy, witness, oracle and a scan row that needs no exact D load
  numpy and the table modules they use (groups and, as needed, subgroups,
  jennings, sequences, witnesses), but not the search engine zerosum;
- davenport and a scan row that needs an exact D load zerosum too.
"""

from __future__ import annotations

import argparse
import collections
import functools
import json
import math
import operator
import os
import re
import sys
import time

from .cache import (ResultRecord, cache_get, cache_path, cache_put, cache_records,
                    compact_labels, record_key)
from .descriptors import (GRAMMAR_HINT, GroupDescriptor, make_descriptor,
                          parse_descriptor, validate_descriptor)
from .errors import DavlabError, DescriptorError
from .numtheory import is_prime, prime_power
from .theory import (DEFAULT_ORDERED_CAP, ORDER_CAP, loewy_formula, olson_white,
                     witness_plan)
from .version import __version__

_VARIANT_INVARIANT = {"ordered": "D", "unordered": "Dprime", "E": "E", "weighted": "DA"}


def _ms(t0: float) -> int:
    """Whole milliseconds since the perf_counter reading t0."""
    return int(1000 * (time.perf_counter() - t0))


def _emit(args, desc: GroupDescriptor, invariant: str, value, exact: bool,
          elapsed_ms: int, lines: list[str], **fields) -> None:
    """Print a command's result: under --json one document of the six fields
    that schema.json requires of every result and the command's own fields,
    else `descriptor: <canonical>` and then the command's text lines."""
    if args.json:
        print(json.dumps({"descriptor": desc.canonical(), "invariant": invariant,
                          "value": value, "exact": exact, "elapsed_ms": elapsed_ms,
                          "version": __version__, **fields}, indent=2, sort_keys=True))
    else:
        print(f"descriptor: {desc.canonical()}")
        for line in lines:
            print(line)


def _budget_from(states: int | None, seconds: float | None):
    """The zerosum.SearchBudget of --budget-states/--budget-seconds; an
    unset one keeps its default, and None when neither is set."""
    if states is None and seconds is None:
        return None
    from . import zerosum
    default = zerosum.SearchBudget()
    return zerosum.SearchBudget(
        max_states=default.max_states if states is None else states,
        max_seconds=default.max_seconds if seconds is None else seconds)


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


def _max_order(text: str) -> int:
    """argparse type of --max-order: 1 to ORDER_CAP, as no larger group builds."""
    if not (text.isdigit() and 1 <= int(text) <= ORDER_CAP):
        raise argparse.ArgumentTypeError(
            f"expected an integer from 1 to {ORDER_CAP}, got {text!r}")
    return int(text)


def _search_record(canonical: str, invariant: str, result, weights=None) -> ResultRecord:
    """The cache record of one search result."""
    return ResultRecord(canonical, invariant, result.value, result.exact,
                        weight_set=list(weights) if weights else None,
                        witness=result.witness.labels(), elapsed_ms=int(1000 * result.elapsed))


def _parse_weights(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(tok) for tok in text.split(","))
    except ValueError:
        raise DescriptorError(f"bad weight list {text!r}; expected e.g. --weights=1,4")


# --- subcommand bodies ----------------------------------------------------------

def _cmd_info(args) -> int:
    from . import groups
    desc = parse_descriptor(args.descriptor)
    t0 = time.perf_counter()
    info = groups.group_info(groups.build(desc))
    elapsed_ms = _ms(t0)
    gens = " ".join(f"{k}={v}" for k, v in info.generator_orders.items())
    _emit(args, desc, "info", info.order, True, elapsed_ms, [
        f"order: {info.order}",
        f"exponent: {info.exponent}",
        f"center: {info.center_size}",
        f"commutator_subgroup: {info.commutator_size}",
        f"nilpotency_class: {info.nilpotency_class}",
        f"generator_orders: {gens}",
    ], exponent=info.exponent, center_size=info.center_size,
        commutator_size=info.commutator_size, nilpotency_class=info.nilpotency_class,
        generator_orders=info.generator_orders, prime=info.prime)
    return 0


def _cmd_loewy(args) -> int:
    desc = parse_descriptor(args.descriptor)
    t0 = time.perf_counter()
    data = formula = None
    if args.method in ("direct", "both"):
        from . import groups, jennings
        t0 = time.perf_counter()  # a first import, numpy's, is not computation time
        data = jennings.jennings_data(groups.build(desc))
    if args.method in ("formula", "both"):
        formula = loewy_formula(desc)
    elapsed_ms = _ms(t0)
    agree = args.method != "both" or data.loewy_length == formula
    lines, fields = [], {}
    if data is not None:
        fields.update(chain_sizes=data.chain_sizes, coefficients=data.coefficients)
        lines.append(f"loewy_length(direct): {data.loewy_length}")
    if formula is not None:
        fields["formula_value"] = formula
        lines.append(f"loewy_length(formula): {formula}")
    if args.method == "both":
        lines += [f"agreement: {'yes' if agree else 'NO'}",
                  "chain_sizes: " + " ".join(map(str, data.chain_sizes)),
                  "coefficients: " + " ".join(map(str, data.coefficients))]
    direct = data is not None
    _emit(args, desc, "L" if direct else "L_formula",
          data.loewy_length if direct else formula, True, elapsed_ms, lines,
          method=args.method, agreement=agree, **fields)
    return 0 if agree else 1


def _cmd_davenport(args) -> int:
    desc = parse_descriptor(args.descriptor)
    canonical = desc.canonical()
    invariant = _VARIANT_INVARIANT[args.variant]
    weights = None if args.weights is None else _parse_weights(args.weights)
    if args.variant == "weighted" and weights is None:
        raise DescriptorError("--variant=weighted needs --weights=a1,a2,...")
    if args.variant != "weighted" and weights is not None:
        raise DescriptorError(f"--weights needs --variant=weighted, not {args.variant}")
    path = cache_path(args.cache)
    t0 = time.perf_counter()
    record = None if args.no_cache else cache_get(path, canonical, invariant, weights)
    fresh = record is None
    if fresh:
        imported = time.perf_counter()
        from . import groups, zerosum
        t0 += time.perf_counter() - imported  # a first import, numpy's, is not search time
        search = {"ordered": zerosum.davenport_ordered,
                  "unordered": zerosum.davenport_unordered,
                  "E": zerosum.eg_invariant,
                  "weighted": functools.partial(zerosum.davenport_weighted, weights=weights)}
        result = search[args.variant](groups.build(desc), budget=_budget_from(
            args.budget_states, args.budget_seconds))
        record = _search_record(canonical, invariant, result, weights)
    elapsed_ms = _ms(t0)
    lines = [
        f"invariant: {invariant}",
        f"value: {record.value}",
        f"exact: {str(record.exact).lower()}",
        "witness: " + (compact_labels(record.witness) if record.witness is not None
                       else "(none)"),
    ]
    # a served record is exact, so its search ran to the end
    fields = {"witness": record.witness, "cached": not fresh, "stop_reason": "done"}
    if fresh:
        if not args.no_cache:
            cache_put(path, record)
        fields.update(states=result.states_explored, stop_reason=result.stop_reason)
        lines += [f"states: {result.states_explored}",
                  f"stop_reason: {result.stop_reason}",
                  f"elapsed_ms: {elapsed_ms}"]
    else:
        lines.append(f"cache: hit ({elapsed_ms} ms)")
    _emit(args, desc, invariant, record.value, record.exact, elapsed_ms, lines, **fields)
    return 0


def _cmd_witness(args) -> int:
    from . import groups, sequences, witnesses
    t0 = time.perf_counter()
    desc = parse_descriptor(args.descriptor)
    spec = witnesses.witness_for_theorem(desc, args.theorem, args.unverified_explore)
    group = groups.build(desc)
    seq = spec.sequence(group)
    in_scope = spec.proven
    free = oracle = None
    if args.verify:
        free = sequences.is_ordered_free(seq)
        if desc.family in ("g1", "g3") and in_scope:
            oracle = witnesses.congruence_oracle(witnesses.congruence_system(desc))
    elapsed_ms = _ms(t0)
    verified = bool(args.verify and free and (oracle is None or oracle == free))
    lower = spec.length + 1 if free is not False else 1
    lines = [
        f"construction: {args.theorem} ({spec.case_tag})",
        f"witness: {spec.describe(group)}",
        f"length: {spec.length}",
    ]
    if args.verify:
        lines.append(f"ordered_free: {str(free).lower()}")
        lines.append(f"oracle: {str(oracle).lower() if oracle is not None else 'n/a'}")
        lines.append(f"implied: D >= {lower}" if free else "implied: nothing (not free)")
        if not in_scope:
            lines.append("note: outside the proven parameter scope, reported only")
    _emit(args, desc, "witness_check", lower, verified, elapsed_ms, lines,
          witness=spec.block_labels(group), case=spec.case_tag, length=spec.length,
          ordered_free=free, oracle=oracle, in_proven_scope=in_scope,
          bounds={"lower": lower, "upper": None,
                  "lower_source": "witness", "upper_source": None})
    # outside the proven parameter scope a non-free sequence is a finding,
    # not a failure
    return 1 if args.verify and in_scope and not verified else 0


def _cmd_oracle(args) -> int:
    from . import witnesses
    desc = parse_descriptor(args.descriptor)
    t0 = time.perf_counter()
    system = witnesses.congruence_system(desc)
    verdict = witnesses.congruence_oracle(system)
    disc = witnesses.discriminant_check(system.prime, system.case_tag)
    elapsed_ms = _ms(t0)
    tuples = math.prod(system.ranges)
    _emit(args, desc, "oracle_check", verdict, True, elapsed_ms, [
        f"case: {system.case_tag}",
        f"least_non_residue: {system.q if system.q is not None else 'n/a'}",
        f"discriminant_check: {str(disc).lower()}",
        f"only_trivial_solution: {str(verdict).lower()}",
        f"tuples: {tuples}",
        f"elapsed_ms: {elapsed_ms}",
    ], case=system.case_tag, least_non_residue=system.q, discriminant_check=disc,
        tuples=tuples)
    return 0 if verdict and disc else 1


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


def _grid(families: list[str], primes: list[int], max_order: int, ranges):
    """All valid descriptors of the requested families up to max_order."""
    out: list[GroupDescriptor] = []
    for family in families:
        if family in ("d", "q", "sd", "m2"):
            order = 8
            while order <= max_order:
                out.append(make_descriptor(family, order))
                order *= 2
            if family in ("q", "sd"):
                # non-2-power orders covered by the dicyclic/semidihedral result
                step = 4 if family == "q" else 8
                out.extend(make_descriptor(family, n)
                           for n in range(2 * step, max_order + 1, step) if n & (n - 1))
        elif family in ("g1", "g2", "g3"):
            for p in primes:
                out.extend(_p_family_descs(family, p, max_order))
        else:
            raise DescriptorError(f"scan does not cover family {family!r}")
    grid = []
    for desc in out:
        try:
            validate_descriptor(desc)
        except DavlabError:
            continue
        if desc.theoretical_order() <= max_order and _range_ok(desc, ranges):
            grid.append(desc)
    return grid


def _p_family_descs(family: str, p: int, max_order: int):
    # validate_descriptor's inequalities, repeated so that the grid builds no
    # invalid descriptor (validating every exponent tuple within the order
    # bound takes each warm g-family scan about 1 ms longer); a test checks
    # that the two agree
    import itertools
    max_e = 1
    while p ** (max_e + 1) <= max_order:
        max_e += 1
    exps = range(1, max_e + 1)
    if family == "g1":
        for a, b, g in itertools.product(exps, repeat=3):
            if a >= b >= g >= 1 and p ** (a + b + g) <= max_order:
                yield make_descriptor("g1", p, a, b, g)
    elif family == "g2":
        for a, b, g in itertools.product(exps, repeat=3):
            if a >= 2 * g and b >= g >= 1 and p ** (a + b) <= max_order:
                yield make_descriptor("g2", p, a, b, g)
    elif family == "g3":
        for a, b, g, s in itertools.product(exps, repeat=4):
            if (b >= g > s >= 1 and a + s >= 2 * g
                    and p ** (a + b + s) <= max_order):
                yield make_descriptor("g3", p, a, b, g, s)


def _is_p_group(order: int) -> bool:
    return prime_power(order) is not None


def _needed(desc: GroupDescriptor, search_max_order: int) -> tuple[str, ...]:
    """The invariants scan_row reads: the Loewy length bounds a p-group from
    above, a witness check bounds D from below where a construction is known,
    and D itself is searched at or below search_max_order."""
    order = desc.theoretical_order()
    needed = []
    if _is_p_group(order):
        needed.append("L")
    if witness_plan(desc) is not None:
        needed.append("witness_check")
    if order <= search_max_order:
        needed.append("D")
    return tuple(needed)


def scan_row(desc: GroupDescriptor, records: dict[str, ResultRecord],
             cached: bool, elapsed_ms: int = 0) -> dict:
    """One scan row from the records of its needed invariants (_needed),
    each read from the cache or computed for this row. The upper bound is
    the Loewy length of a p-group; the other rows are dicyclic or
    semidihedral, never cyclic, and take Olson-White. The lower bound is the
    larger of a verified witness and an exact D. The verdict reads the bounds
    alone: REFUTED when they cross or an exact D misses the upper bound,
    CONFIRMED when they meet, CONSISTENT otherwise."""
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
        records.append(_search_record(canonical, "D", zerosum.davenport_ordered(group, budget)))
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
    # a set budget imports zerosum, which only a row that searches D needs
    budget = (_budget_from(args.budget_states, args.budget_seconds)
              if any("D" in need for need in missing) else None)
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


# Built once per process: main() may run many times in one process (tests,
# library callers), and every fresh parser leaves cyclic garbage behind.
@functools.lru_cache(maxsize=1)
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="davlab",
        description="Zero-sum invariants and Loewy lengths of small finite groups.",
        epilog=GRAMMAR_HINT)
    parser.add_argument("--version", action="version", version=__version__)
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("info", help="order, exponent, center, class of a group")
    p.add_argument("descriptor")
    _add_common(p)
    p.set_defaults(func=_cmd_info)

    p = subs.add_parser("loewy", help="Loewy length, by chain and/or closed form")
    p.add_argument("descriptor")
    p.add_argument("--method", choices=("direct", "formula", "both"), default="direct")
    _add_common(p)
    p.set_defaults(func=_cmd_loewy)

    p = subs.add_parser("davenport", help="Davenport-type constants by exact search")
    p.add_argument("descriptor")
    p.add_argument("--variant", choices=tuple(_VARIANT_INVARIANT), default="ordered")
    p.add_argument("--weights", default=None, help="weight set for --variant=weighted")
    _add_common(p, cache_flags=True, budget_flags=True)
    p.set_defaults(func=_cmd_davenport)

    p = subs.add_parser("witness", help="extremal product-one-free constructions")
    p.add_argument("descriptor")
    p.add_argument("--theorem", type=int, choices=(1, 6, 7), required=True,
                   help="construction family: 1 dicyclic/semidihedral, "
                        "6 odd-prime class two, 7 order 2^r")
    p.add_argument("--verify", action="store_true",
                   help="check freeness (and the congruence oracle where it applies)")
    p.add_argument("--unverified-explore", action="store_true",
                   help="allow g1 gamma>1 / g3 sigma>1 exploration")
    _add_common(p)
    p.set_defaults(func=_cmd_witness)

    p = subs.add_parser("oracle", help="congruence-system enumeration for g1/g3")
    p.add_argument("descriptor")
    _add_common(p)
    p.set_defaults(func=_cmd_oracle)

    p = subs.add_parser("scan", help="conjecture scan over descriptor grids")
    p.add_argument("--families", type=_families, default="d,q,sd,m2,g1,g2,g3")
    p.add_argument("--primes", type=_odd_primes, default="3,5",
                   help="comma list of odd primes for the g families")
    p.add_argument("--max-order", type=_max_order, default=32)
    p.add_argument("--search-max-order", type=int, default=16,
                   help="exact search only at or below this order")
    p.add_argument("--param-ranges", default=None,
                   help="comma list of filters, e.g. gamma=1,alpha<=3 "
                        "(ignored by families lacking the parameter)")
    _add_common(p, cache_flags=True, budget_flags=True, csv_flag=True)
    p.set_defaults(func=_cmd_scan)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
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
