"""The five one-group commands of the command line: info, loewy, davenport,
witness and oracle. Each reads one group descriptor and prints one result
through `_emit`, which writes both forms of it: the six fields that
schema.json requires of every result document (descriptor, invariant, value,
exact, elapsed_ms, version) beside the command's own, and the
`descriptor: <canonical>` line that starts its text output.

`cli.main` imports this module only when one of these commands runs, so a
scan never compiles it. It imports nothing from cli: `python -m davlab.cli`
runs cli as `__main__`, and an import of `davlab.cli` from here would compile
cli.py a second time. Like cli, it imports at module level only the modules
that load no numpy, and the others inside the command that needs them.
"""

from __future__ import annotations

import functools
import json
import math
import time

from .cache import (VARIANT_INVARIANT, cache_get, cache_path, cache_put, check_writable,
                    compact_labels, search_record)
from .descriptors import GroupDescriptor, parse_descriptor
from .errors import DescriptorError
from .theory import loewy_formula
from .version import __version__


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


def _parse_weights(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(tok) for tok in text.split(","))
    except ValueError:
        raise DescriptorError(f"bad weight list {text!r}; expected e.g. --weights=1,4")


def info(args) -> int:
    from . import groups, subgroups
    desc = parse_descriptor(args.descriptor)
    t0 = time.perf_counter()
    group = groups.build(desc)
    exponent, center = group.exponent(), len(group.center())
    # [G, G] is the series' second term; a series of one term is a perfect G
    series = subgroups.lower_central_series(group)
    commutator = len(series[1] if len(series) > 1 else series[0])
    nil_class = len(series) - 1 if series[-1].is_trivial else None
    orders = {name: group.element_order(g) for name, g in group.generators.items()}
    elapsed_ms = _ms(t0)
    gens = " ".join(f"{k}={v}" for k, v in orders.items())
    _emit(args, desc, "info", group.order, True, elapsed_ms, [
        f"order: {group.order}",
        f"exponent: {exponent}",
        f"center: {center}",
        f"commutator_subgroup: {commutator}",
        f"nilpotency_class: {nil_class}",
        f"generator_orders: {gens}",
    ], exponent=exponent, center_size=center, commutator_size=commutator,
        nilpotency_class=nil_class, generator_orders=orders, prime=group.prime)
    return 0


def loewy(args) -> int:
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


def davenport(args) -> int:
    desc = parse_descriptor(args.descriptor)
    canonical = desc.canonical()
    invariant = VARIANT_INVARIANT[args.variant]
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
        if not args.no_cache:
            check_writable(path)  # before the search, not after it
        imported = time.perf_counter()
        from . import groups, zerosum
        t0 += time.perf_counter() - imported  # a first import, numpy's, is not search time
        search = {"ordered": zerosum.davenport_ordered,
                  "unordered": zerosum.davenport_unordered,
                  "E": zerosum.eg_invariant,
                  "weighted": functools.partial(zerosum.davenport_weighted, weights=weights)}
        result = search[args.variant](groups.build(desc), budget=zerosum.budget_from(
            args.budget_states, args.budget_seconds))
        record = search_record(canonical, invariant, result, weights)
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


def witness(args) -> int:
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
        if desc.family in witnesses._BLOCKS and in_scope:
            oracle = witnesses.congruence_oracle(witnesses.congruence_system(desc))
    elapsed_ms = _ms(t0)
    verified = bool(args.verify and free and (oracle is None or oracle == free))
    lower = spec.length + 1 if free is not False else 1
    lines = [
        f"construction: {args.theorem} ({spec.case_tag})",
        f"witness: {seq.compact()}",
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


def oracle(args) -> int:
    from . import witnesses
    desc = parse_descriptor(args.descriptor)
    t0 = time.perf_counter()
    system = witnesses.congruence_system(desc)
    verdict = witnesses.congruence_oracle(system)
    disc = witnesses.discriminant_check(system.prime, system.case_tag.split("_")[1])
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
