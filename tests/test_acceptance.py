"""One test per bundled acceptance criterion; tolerances live in the suite."""

from uvflow import suite


def test_quartic_uv_prediction():
    r = suite.criterion_1()
    assert r.passed, r.details


def test_coulomb_uv_prediction():
    r = suite.criterion_2()
    assert r.passed, r.details


def test_morse_constant_gap():
    r = suite.criterion_3()
    assert r.passed, r.details


def test_beta_cross_validation():
    r = suite.criterion_4()
    assert r.passed, r.details


def test_fixed_point_independence():
    r = suite.criterion_5()
    assert r.passed, r.details


def test_kh_log_divergence():
    r = suite.criterion_6()
    assert r.passed, r.details


def test_kh_cs_flow():
    r = suite.criterion_7()
    assert r.passed, r.details


def test_scaling_laws():
    r = suite.criterion_8()
    assert r.passed, r.details


def test_oracle_soundness():
    r = suite.criterion_9()
    assert r.passed, r.details


def test_run_all_is_complete():
    results = suite.run_all()
    assert [r.index for r in results] == list(range(1, 10))
    assert all(r.passed for r in results)


def test_run_all_makes_eleven_distinct_grid_solves(monkeypatch):
    suite._quartic_level.cache_clear()
    solves, quoted = [], []

    def spy(spec, grid, parity=None, refine=True, _solve=suite.ground_state):
        solves.append((spec.family.name, spec.coupling,
                       tuple(sorted(spec.shape.items())), grid, parity, refine))
        return _solve(spec, grid, parity=parity, refine=refine)

    def quartic_level(_level=suite._quartic_level):
        quoted.append(_level())
        return quoted[-1]

    monkeypatch.setattr(suite, "ground_state", spy)
    monkeypatch.setattr(suite, "_quartic_level", quartic_level)
    assert all(r.passed for r in suite.run_all())
    assert len(solves) == 11
    assert len(set(solves)) == 11
    # criteria 1, 8 and 9 quote the one solve of quartic(1) on Grid(6, 4001)
    assert len(quoted) == 3
    assert len({q.hex() for q in quoted}) == 1
    assert solves.count(("quartic", 1.0, (), suite.Grid(6.0, 4001), None, True)) == 1
