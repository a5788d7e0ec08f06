"""Final metric rows of every algorithm on every family, pinned.

The expected values were recorded before the driver loop, state type and
``z`` layout were unified, so any change to the draw order or to the
arithmetic of a recursion shows up here.  They matched bit for bit on the
machine that recorded them; the tolerance only leaves room for a different
BLAS kernel elsewhere.  The n=1 MAML rows carry no column that depends on
the state (no closed forms, and consensus is 0 for one agent), so those two
pins check only status, row count and schedule values.
"""

import numpy as np
import pytest

from dscosim.algorithms import run
from dscosim.problems import (
    make_logistic_cso,
    make_quadratic,
    make_sigmoid_quadratic,
    make_sinusoid_maml,
)
from dscosim.schedules import Polynomial, StepSchedule
from dscosim.topology import DirectedGraph, build_weight_pair, generate_ring_plus_random

FAMILIES = {
    "quadratic": (lambda n: make_quadratic(n, 3, seed=1, noise_inner=0.2, noise_outer=0.2), 0.05),
    "logistic": (lambda n: make_logistic_cso(n, 20, 3, seed=2), 0.2),
    "sigmoid": (lambda n: make_sigmoid_quadratic(n, 3, seed=3, p=2), 0.2),
    "maml": (lambda n: make_sinusoid_maml(n, 20, 4, 0.01, seed=4), 0.002),
}
AGENTS = {"ab-dscsc": 4, "gp-dscgd": 4, "gt-dscgd": 4, "scsc": 1, "scgd": 1}

# (algorithm, family): (status, row count, final row values in CSV column order)
PINNED = {
    ("ab-dscsc", "quadratic"): ("completed", 9, (57, 0.0044202322710818285, 0.0044202322710818285, 3.834811211616678e-06, 0.3854918280302799, 0.3803929662310754, 0.02985994611587041, 0.05140542420958881)),
    ("gp-dscgd", "quadratic"): ("completed", 9, (57, 0.03, 0.0044202322710818285, 0.004194202439510951, 0.07371497614129256, 0.3536311419736352, 0.02338205304075001, 0.043783682109597793)),
    ("gt-dscgd", "quadratic"): ("completed", 9, (57, 0.03, 0.0044202322710818285, 1.8807218247023578e-06, 0.05968953762346226, 0.36516941721369134, 0.022487339728286725, 0.04093879755737162)),
    ("scsc", "quadratic"): ("completed", 9, (57, 0.0044202322710818285, 0.0044202322710818285, 0.0, 0.05643135164964194, 2.732884561732712, 0.06752882981402156, 0.20068651925226902)),
    ("scgd", "quadratic"): ("completed", 9, (57, 0.0044202322710818285, 0.0044202322710818285, 0.0, 0.8646285043222115, 47.315394183782836, 0.8099208602473483, 2.9569877754855898)),
    ("ab-dscsc", "logistic"): ("completed", 9, (57, 0.017680929084327314, 0.017680929084327314, 5.839413351627226e-06, 1.4582478137565569, 0.05903787868216397, 396.8725238166185, 0.40305074143675534)),
    ("gp-dscgd", "logistic"): ("completed", 9, (57, 0.03, 0.017680929084327314, 7.572674390104236e-05, 0.003949869590136263, 0.16747337595441336, 424.23337332377923, 0.619983955589715)),
    ("gt-dscgd", "logistic"): ("completed", 9, (57, 0.03, 0.017680929084327314, 2.1341713384176783e-07, 0.002111746462300107, 0.16780155565418015, 424.2919256885596, 0.6205648049159963)),
    ("scsc", "logistic"): ("completed", 9, (57, 0.017680929084327314, 0.017680929084327314, 0.0, 0.062433281144566026, 0.05610386014721827, 646.6390500814114, 0.4257794810326768)),
    ("scgd", "logistic"): ("completed", 9, (57, 0.017680929084327314, 0.017680929084327314, 0.0, 2.1222955165695754, 0.04858844785226798, 642.9033787517927, 0.4075806469133868)),
    ("ab-dscsc", "sigmoid"): ("completed", 9, (57, 0.017680929084327314, 0.017680929084327314, 9.36831681555248e-06, 0.005924267938252492, 0.008620216944000123, None, None)),
    ("gp-dscgd", "sigmoid"): ("completed", 9, (57, 0.03, 0.017680929084327314, 0.0025254229897990403, 0.0026407367622961423, 0.09754839504181344, None, None)),
    ("gt-dscgd", "sigmoid"): ("completed", 9, (57, 0.03, 0.017680929084327314, 1.685990391411861e-06, 0.0019487030982654318, 0.09665813442724867, None, None)),
    ("scsc", "sigmoid"): ("completed", 9, (57, 0.017680929084327314, 0.017680929084327314, 0.0, 0.0005009822826488105, 0.030406858528775803, None, None)),
    ("scgd", "sigmoid"): ("completed", 9, (57, 0.017680929084327314, 0.017680929084327314, 0.0, 0.006471358831492673, 0.021215995935313037, None, None)),
    ("ab-dscsc", "maml"): ("completed", 9, (57, 0.00017680929084327312, 0.00017680929084327312, 5.578439118335237e-06, None, None, None, None)),
    ("gp-dscgd", "maml"): ("completed", 9, (57, 0.03, 0.00017680929084327312, 6.308174561282416e-05, None, None, None, None)),
    ("gt-dscgd", "maml"): ("completed", 9, (57, 0.03, 0.00017680929084327312, 1.82223199936567e-07, None, None, None, None)),
    ("scsc", "maml"): ("completed", 9, (57, 0.00017680929084327312, 0.00017680929084327312, 0.0, None, None, None, None)),
    ("scgd", "maml"): ("completed", 9, (57, 0.00017680929084327312, 0.00017680929084327312, 0.0, None, None, None, None)),
}


@pytest.mark.parametrize("algorithm,family", sorted(PINNED))
def test_final_row_pinned(algorithm, family):
    make, a = FAMILIES[family]
    n = AGENTS[algorithm]
    g = generate_ring_plus_random(n, 2, 0) if n > 1 else DirectedGraph(1)
    schedule = StepSchedule(Polynomial(a, 1.0, 0.6), beta=1.0)
    rec = run(algorithm, make(n), schedule, 60, weights=build_weight_pair(g, g), seed=5, metric_stride=7)
    status, rows, final = PINNED[(algorithm, family)]
    assert (rec.status, len(rec.rows)) == (status, rows)
    got = rec.rows[-1].values()
    assert [v is None for v in got] == [v is None for v in final]
    np.testing.assert_allclose(
        [v for v in got if v is not None], [v for v in final if v is not None], rtol=1e-12, atol=0
    )
