"""The benchmark's workloads, by name.

A workload module's `make_items(rng)` returns (first, rest): items that
must run before the others, and the others.  An item is a (run, check)
pair: `run(tracer)` is timed, `check(rnd, result)` compares its output
with the oracles, untimed.  A round is the first items, then the rest
shuffled by the seed, so that each kind of item is spread over the
whole round and slow and fast spells of a shared machine fall on all of
them alike.
"""

import importlib
import random

WORKLOADS = {
    "orbit-max": "orbit_max",
    "profile-lattice": "profile_lattice",
    "group-engine": "group_engine",
    "fields-colorings-certs": "fields_colorings_certs",
}


def make_round(name, seed):
    rng = random.Random(seed)
    module = importlib.import_module(f"{__name__}.{WORKLOADS[name]}")
    first, rest = module.make_items(rng)
    rng.shuffle(rest)
    return first + rest
