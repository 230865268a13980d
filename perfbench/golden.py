"""Golden corpus: the circuit every benchmark instance compiles to.

Usage:
    python3 perfbench/golden.py check            # exit 1 on any difference
    python3 perfbench/golden.py write

For each workload and seed in perfbench/golden/<workload>.json this stores
the sha256 of ``to_text(circuit)``, the depth and the SWAP count of every
instance.  A change meant to keep circuits bit-identical shows it with
``check``.  Instances are compiled once through the library with the default
config, as ``ctagsched schedule`` does, so cli-cold's entries equal the
``*.sched.txt`` files its processes write.
"""
from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
GOLDEN = HERE / "golden"
SEEDS = (1, 2, 3)


def compile_corpus(name: str, seed: int) -> dict:
    import workloads
    from ctagsched import make_architecture

    wl = workloads.WORKLOADS[name]
    insts = workloads.build(wl, seed, HERE.parent / ".perfbench" / "golden" / f"{name}-seed{seed}")
    rows = {}
    for inst in insts:
        if inst.arch is None:
            inst.arch = make_architecture(inst.arch_spec)
        op = workloads.compile_library(inst)
        if op.error:
            raise SystemExit(f"{name} seed {seed} instance {inst.id}: {op.error}")
        rows[str(inst.id)] = {"cell": inst.cell.label, "digest": op.digest,
                              "depth": op.depth, "swaps": op.swaps}
    return rows


def main(argv=None) -> int:
    sys.path.insert(0, str(HERE))
    import workloads

    sys.path.insert(0, str(workloads.SRC))
    p = argparse.ArgumentParser(description="write or check the golden corpus")
    p.add_argument("action", choices=("write", "check"))
    args = p.parse_args(argv)

    if args.action == "write":
        GOLDEN.mkdir(exist_ok=True)
        for name in workloads.WORKLOADS:
            doc = {"seeds": {str(s): compile_corpus(name, s) for s in SEEDS}}
            (GOLDEN / f"{name}.json").write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
            print(f"wrote {name}: seeds {SEEDS}")
        return 0

    bad = 0
    for name in workloads.WORKLOADS:
        doc = json.loads((GOLDEN / f"{name}.json").read_text())
        for seed, want in doc["seeds"].items():
            got = compile_corpus(name, int(seed))
            for key in sorted(set(want) | set(got), key=int):
                if want.get(key) != got.get(key):
                    bad += 1
                    print(f"DIFF {name} seed {seed} instance {key}: "
                          f"golden {want.get(key)} now {got.get(key)}")
            print(f"checked {name} seed {seed}: {len(want)} instances")
    print("golden corpus matches" if not bad else f"{bad} instances differ")
    return 1 if bad else 0


if __name__ == "__main__":
    raise SystemExit(main())
