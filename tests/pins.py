"""The pinned davlab commands, run as a user runs them: `python tests/pins.py`.

Each row of PINS runs once as `timeout SECONDS davlab ARGV` in a fresh child
(`davlab` on PATH, as after `pip install -e .`). It passes when the child
exits with one of the row's codes, its JSON document holds the row's fields,
check(doc, stderr) holds and the child's own peak RSS (os.wait4) is at most
the row's MB. After the last row every JSON document is validated against
schema.json; davlab and jsonschema are imported only then, as a child's peak
starts at the image of this process. Exits 1 if anything fails.
"""

import collections
import json
import os
import subprocess
import sys
import tempfile
import time

SECONDS = 120  # the limit of a command pinned without one of its own
# check(doc, stderr): doc is None unless the row exits 0 with --json
Pin = collections.namedtuple("Pin", "argv fields seconds mb check codes",
                             defaults=({}, SECONDS, None, None, (0,)))


def search(argv, value, seconds=SECONDS, mb=None, **fields):
    """A davenport row, exact at value, with the given other fields."""
    return Pin(f"davenport {argv} --no-cache --json", {"value": value, "exact": True, **fields},
               seconds, mb)


Q24_WITNESS = ["y"] * 11 + ["x"]

PINS = [
    # the radical layer dimensions: one per layer, summing to |G|; m2[4096]
    # peaks at 65 MB, its 32 MiB table and 1 MiB of fill chunks included
    *(Pin(f"loewy {desc} --method both --json", {"value": value, "agreement": True}, 30, mb,
          lambda doc, err, order=order: (sum(doc["coefficients"]), len(doc["coefficients"]))
          == (order, doc["value"]))
      for desc, value, order, mb in [("g1[3,3,3,1]", 57, 2187, 90), ("m2[4096]", 2049, 4096, 75)]),
    search("q[32] --budget-states 20000", 17),
    # the least longest walk on the words b^j a^i: theorem 6's blocks a^8 b^2
    search("g2[3,2,1,1]", 11, witness=["a"] * 8 + ["b"] * 2),
    *(Pin(f"witness {desc} --theorem {theorem} --verify --json", {"exact": True}, 30)
      for desc, theorem in [("sd[24]", 1), ("m2[2048]", 7), ("g3[3,3,2,2,1]", 6)]),
    Pin("witness q[12] --theorem 7 --verify --json", seconds=30, codes=(1,),
        check=lambda doc, err: "theorem 7 covers d, q, sd, m2 of order 2^r" in err),
    search("d[48]", 25, 30),
    # 200,000 orbit states and 2 x 8,192 keys: 62 MB; a memo-sized key cache: 100 MB
    search("q[64]", 33, 60, 80),
    # layer images of every multiset met: 650 MB; two generations of 8,192: 180 MB
    search("q[48] --variant=unordered --budget-states 100000", 25, 60, 300, states=42432),
    # a state tries 2199 letters one at a time; the clock is read every 64 of them
    Pin("davenport ab[2,1100] --budget-seconds 1 --no-cache --json",
        {"stop_reason": "seconds", "exact": False}, 10,
        check=lambda doc, err: len(doc["witness"]) == doc["value"] - 1),
    search("q[24] --variant=unordered", 13, states=976),
    search("q[32] --variant=unordered", 17, states=2793),
    # the 1,344 maps phi(a, z) of ab[2,2,2]: 21 MiB of key tables, a 54 MB peak
    *(search(f"{desc} --variant=E", value, mb=100, states=states)
      for desc, value, states in [("c[8]", 15, 535), ("d[6]", 11, 2336), ("ab[2,2,2]", 11, 60)]),
    # keyed by automorphisms alone it trips at 50,001 states; central translations: 16,751
    search("c[12] --variant E --budget-states 50000", 23, 60),
    # D_A at A = {1} is the ordered D search
    search("q[24]", 13, states=516, witness=Q24_WITNESS),
    search("q[24] --variant=weighted --weights=1", 13, states=516, witness=Q24_WITNESS),
    Pin("oracle g3[17,3,2,2,1] --json", {"value": True}, 10),
]


def run(pin):
    """Run one row and print its line: (what is wrong or None, its document)."""
    with tempfile.TemporaryFile() as out, tempfile.TemporaryFile() as err:
        t0 = time.perf_counter()
        child = subprocess.Popen(["timeout", str(pin.seconds), "davlab", *pin.argv.split()],
                                 stdout=out, stderr=err)
        # this child's own rusage: ru_maxrss (KiB) is the larger of timeout's peak and davlab's
        _, status, usage = os.wait4(child.pid, 0)
        child.returncode = code = os.waitstatus_to_exitcode(status)
        seconds, mb = time.perf_counter() - t0, usage.ru_maxrss / 1024
        out, err = [f.seek(0) or f.read().decode(errors="replace") for f in (out, err)]
    wrong, doc = None, None
    try:
        if code not in pin.codes:
            wrong = "timed out" if code == 124 else f"exit {code}, want one of {pin.codes}"
        else:
            doc = json.loads(out) if code == 0 and "--json" in pin.argv else None
            got = {key: doc[key] for key in pin.fields}
            if got != pin.fields:
                wrong = f"{got}, want {pin.fields}"
            elif pin.check and not pin.check(doc, err):
                wrong = "its check fails"
            elif pin.mb is not None and mb > pin.mb:
                wrong = f"peak RSS above {pin.mb} MB"
    except (ValueError, KeyError, TypeError) as exc:  # JSONDecodeError is a ValueError
        wrong = repr(exc)
    print(f"davlab {pin.argv[:80]}: exit {code}, {seconds:.1f} s, {mb:.0f} MB"
          + (f": FAIL, {wrong}\n{err[-2000:]}".rstrip() if wrong else ""))
    return wrong, doc


def main():
    results = [(pin.argv, *run(pin)) for pin in PINS]
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    from conftest import schema_errors  # imports davlab and jsonschema
    failures = [argv for argv, wrong, _ in results if wrong]
    for argv, _, doc in results:
        errors = [] if doc is None else schema_errors(doc)
        if errors:
            failures.append(argv)
            print(f"davlab {argv[:80]}: FAIL, schema.json: " + "; ".join(errors))
    print(f"{len(PINS)} commands, {len(failures)} failures")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
