"""Golden per-cpu coherence counters.

The end-to-end benchmark pins cycles, misses, refs, instructions and
switches, but not what the coherence directory decides: which remote
copies a write invalidates, which misses are priced as remote, and the
writebacks that follow.  These runs pin every per-cpu counter of
:meth:`Machine.snapshot`, on 4 cpus (Ultra-1 pricing, where a remote miss
costs the same as a local one) and on the 8-cpu Enterprise 5000 (where it
costs 80 cycles instead of 50), so a change to the directory or the
caches behind it must keep them bit for bit.
"""

import pytest

from repro.machine.configs import E5000_8CPU, ULTRA1
from repro.machine.smp import Machine
from repro.sched import SCHEDULERS
from repro.threads.runtime import Runtime
from repro.workloads import MergeParams, MergeWorkload, TasksParams, TasksWorkload

#: snapshot fields, in the order the golden rows hold them
FIELDS = ("refs", "hits", "misses", "writebacks", "invalidations",
          "remote_misses", "cycles", "instructions")

APPS = {
    "tasks": lambda: TasksWorkload(TasksParams(num_tasks=96, periods=2)),
    "merge": lambda: MergeWorkload(MergeParams(num_elements=6250, seed=5)),
}

CONFIGS = {4: ULTRA1.with_cpus(4), 8: E5000_8CPU}


def snapshot_rows(app, policy, cpus):
    """Run one app under one policy; per-cpu snapshot rows."""
    machine = Machine(CONFIGS[cpus], seed=3)
    runtime = Runtime(machine, SCHEDULERS[policy]())
    APPS[app]().build(runtime)
    runtime.run()
    return [tuple(snap[f] for f in FIELDS) for snap in machine.snapshot()]


#: per-cpu rows, keyed app/policy/cpus
GOLDEN = {
    "tasks/fcfs/4": [
        (4925, 135, 4790, 32, 16, 2049, 331496, 119072),
        (5010, 254, 4756, 0, 42, 1821, 331391, 119581),
        (4899, 52, 4847, 0, 41, 2027, 331391, 116160),
        (4846, 71, 4775, 0, 55, 1957, 331391, 119235),
    ],
    "tasks/fcfs/8": [
        (2372, 21, 2351, 8, 24, 941, 217784, 58411),
        (2556, 216, 2340, 0, 32, 826, 217679, 60997),
        (2550, 216, 2334, 0, 32, 925, 217679, 60325),
        (2374, 124, 2250, 0, 39, 1040, 217679, 58635),
        (2467, 116, 2351, 8, 34, 822, 217679, 60040),
        (2550, 214, 2336, 0, 34, 927, 217679, 60325),
        (2465, 117, 2348, 0, 37, 840, 217679, 59816),
        (2346, 14, 2332, 0, 30, 1123, 217750, 55499),
    ],
    "tasks/lff/4": [
        (5259, 2504, 2755, 0, 5, 310, 259916, 124397),
        (5044, 2473, 2571, 23, 10, 108, 259801, 119358),
        (4832, 2080, 2752, 0, 13, 110, 259801, 114051),
        (5045, 2594, 2451, 0, 8, 8, 259801, 119624),
    ],
    "tasks/lff/8": [
        (2526, 1180, 1346, 13, 7, 107, 151681, 59688),
        (2525, 1195, 1330, 0, 7, 107, 151489, 59834),
        (2525, 1195, 1330, 0, 7, 107, 151489, 59825),
        (2524, 1193, 1331, 0, 6, 108, 151489, 59706),
        (2524, 1194, 1330, 0, 8, 106, 151489, 59821),
        (2524, 1193, 1331, 0, 6, 108, 151489, 59706),
        (2522, 1194, 1328, 8, 8, 106, 151489, 59614),
        (2519, 1188, 1331, 9, 7, 107, 151644, 59487),
    ],
    "merge/fcfs/4": [
        (4443, 2402, 2041, 0, 1241, 1831, 184720, 87179),
        (2680, 986, 1694, 0, 1680, 1482, 184615, 62328),
        (2198, 820, 1378, 0, 1358, 1165, 184615, 41595),
        (2186, 1049, 1137, 0, 1125, 926, 184615, 56000),
    ],
    "merge/fcfs/8": [
        (1639, 632, 1007, 0, 998, 900, 228059, 34385),
        (2743, 1265, 1478, 0, 686, 1371, 228164, 57528),
        (1998, 810, 1188, 0, 1179, 1085, 228059, 40966),
        (1218, 390, 828, 0, 821, 721, 228059, 25147),
        (876, 309, 567, 0, 561, 459, 228059, 21571),
        (1273, 530, 743, 0, 731, 639, 228059, 27192),
        (903, 337, 566, 0, 559, 461, 228059, 20924),
        (877, 324, 553, 0, 549, 448, 228059, 20569),
    ],
    "merge/lff/4": [
        (3344, 1833, 1511, 0, 1446, 1244, 199493, 65169),
        (2073, 814, 1259, 0, 1189, 994, 199493, 55257),
        (3904, 1709, 2195, 0, 1346, 1935, 199647, 78685),
        (3199, 1540, 1659, 0, 1588, 1396, 199493, 55833),
    ],
    "merge/lff/8": [
        (3279, 1822, 1457, 0, 628, 1314, 202825, 63083),
        (2127, 969, 1158, 7, 1101, 1016, 202634, 42488),
        (1395, 584, 811, 0, 768, 668, 202634, 27551),
        (1006, 355, 651, 0, 612, 503, 202634, 23018),
        (1341, 453, 888, 0, 842, 745, 202634, 26469),
        (1097, 491, 606, 0, 571, 463, 202634, 24795),
        (1325, 599, 726, 0, 676, 583, 202634, 27776),
        (984, 383, 601, 0, 555, 461, 202634, 22491),
    ],
}


@pytest.mark.parametrize("key", sorted(GOLDEN))
def test_coherence_counters_pinned(key):
    app, policy, cpus = key.split("/")
    assert snapshot_rows(app, policy, int(cpus)) == GOLDEN[key]


def test_golden_exercises_coherence():
    """The pinned runs do invalidate, write back and miss remotely."""
    for rows in GOLDEN.values():
        assert sum(row[FIELDS.index("invalidations")] for row in rows) > 0
        assert sum(row[FIELDS.index("remote_misses")] for row in rows) > 0
    assert any(sum(row[FIELDS.index("writebacks")] for row in rows) > 0
               for rows in GOLDEN.values())
