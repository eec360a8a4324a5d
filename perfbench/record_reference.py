"""Record the references the benchmark checks its answers against.

Both come from baseline reasoners that share no code with the graph
classifier, and both are too slow to rerun at every set-up, so they run
once here and the benchmark reads the recorded files:

* ``classify_reference.json`` — per Figure 1 profile, the number of
  named subsumptions and the unsatisfiable named predicates, from the
  memoized tableau baseline (``repro.baselines.tableau``).  The
  saturation baseline would take hours on these profiles; on small
  scales the script first checks that the two baselines agree.
* ``deep_reference.json`` — the saturation baseline's consequences on
  the deep-rewrite ontology.

Run from the repository root (the FMA 2.0 profile needs about 2 GB)::

    python3 perfbench/record_reference.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(Path.cwd() / "src"))

import deep  # noqa: E402
import figure1  # noqa: E402

#: scale at which the two baselines are compared before recording
CROSS_CHECK_SCALE = 0.02


def tableau_reference(tbox) -> dict:
    """Named subsumption count and unsatisfiable names, tableau baseline.

    Goes through the baseline's own phases rather than
    ``classify_named``, which would materialise millions of axioms.
    """
    from repro.baselines.tableau import MemoizedTableauReasoner, _AxiomIndex

    reasoner = MemoizedTableauReasoner(memory_limit_entries=10**9)

    def unsatisfiable():
        index = _AxiomIndex(tbox)
        label_of = reasoner._label_oracle(index, None)
        return reasoner._unsatisfiable(index, index.named_predicates(), label_of, None)

    return {
        "axioms": len(tbox),
        "unsatisfiable_named": figure1.named_unsatisfiable(unsatisfiable()),
        "subsumptions": reasoner.measure(tbox),
    }


def cross_check() -> None:
    from repro.baselines.saturation import SaturationReasoner
    from repro.corpus.profiles import FIGURE1_ORDER, load_profile

    for name in FIGURE1_ORDER:
        tbox = load_profile(name, scale=CROSS_CHECK_SCALE)
        named = SaturationReasoner().classify_named(tbox)
        saturation = {
            "axioms": len(tbox),
            "subsumptions": len(named.subsumptions),
            "unsatisfiable_named": figure1.named_unsatisfiable(named.unsatisfiable),
        }
        if saturation != tableau_reference(tbox):
            raise SystemExit(f"baselines disagree on {name} at {CROSS_CHECK_SCALE}")
        print(f"{name}: saturation == tableau at scale {CROSS_CHECK_SCALE}", file=sys.stderr)


def main() -> int:
    from repro.corpus.profiles import FIGURE1_ORDER, load_profile

    cross_check()
    profiles = {}
    for name in FIGURE1_ORDER:
        profiles[name] = tableau_reference(load_profile(name, scale=figure1.SCALE))
        print(name, profiles[name]["subsumptions"], file=sys.stderr)
    figure1.REFERENCE.write_text(
        json.dumps(
            {"scale": figure1.SCALE, "reasoner": "tableau-memoized", "profiles": profiles},
            indent=1,
        )
        + "\n"
    )
    tbox = load_profile(deep.PROFILE, scale=deep.SCALE)
    deep.REFERENCE.write_text(json.dumps(deep.saturation_record(tbox)) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
