"""The degree ranges of `verify all` and the default top of `trend`.

Each row is (check, first n, last n) of the cells build_cells schedules,
in schedule order.  A check whose range is empty has no row.
"""

import pytest

from rsfq import cli
from rsfq.verify import RunConfig, build_cells

FULL_RANK = [("rank-qa", 2, 8), ("rank-bab", 2, 7)]
CUT_RANK = [("rank-qa", 2, 4), ("rank-bab", 2, 4)]

SCHEDULE = {
    (3, 1, None): [("star", 0, 5), ("lin-red", 2, 6), ("tau", 1, 5),
                   ("tau-moment", 1, 6), ("gauss", 2, 6), *FULL_RANK,
                   ("vaughan", 4, 6), ("dist", 2, 7)],
    (3, 1, 4): [("star", 0, 4), ("lin-red", 2, 4), ("tau", 1, 4),
                ("tau-moment", 1, 4), ("gauss", 2, 4), *CUT_RANK,
                ("vaughan", 4, 4), ("dist", 2, 4)],
    (5, 1, None): [("star", 0, 5), ("lin-red", 2, 4), ("tau", 1, 5),
                   ("tau-moment", 1, 4), ("gauss", 2, 4), *FULL_RANK,
                   ("vaughan", 4, 4), ("dist", 2, 4)],
    (5, 1, 4): [("star", 0, 4), ("lin-red", 2, 4), ("tau", 1, 4),
                ("tau-moment", 1, 4), ("gauss", 2, 4), *CUT_RANK,
                ("vaughan", 4, 4), ("dist", 2, 4)],
    (7, 1, None): [("star", 0, 5), ("lin-red", 2, 3), ("tau", 1, 4),
                   ("tau-moment", 1, 3), ("gauss", 2, 3), *FULL_RANK,
                   ("dist", 2, 3)],
    (7, 1, 4): [("star", 0, 4), ("lin-red", 2, 3), ("tau", 1, 4),
                ("tau-moment", 1, 3), ("gauss", 2, 3), *CUT_RANK,
                ("dist", 2, 3)],
    (3, 2, None): [("star", 0, 4), ("lin-red", 2, 3), ("tau", 1, 3),
                   ("tau-moment", 1, 3), ("gauss", 2, 2), *FULL_RANK,
                   ("dist", 2, 3)],
    (3, 2, 4): [("star", 0, 4), ("lin-red", 2, 3), ("tau", 1, 3),
                ("tau-moment", 1, 3), ("gauss", 2, 2), *CUT_RANK,
                ("dist", 2, 3)],
    (5, 2, None): [("star", 0, 3), ("lin-red", 2, 2), ("tau", 1, 2),
                   ("tau-moment", 1, 2), *FULL_RANK, ("dist", 2, 2)],
    (5, 2, 4): [("star", 0, 3), ("lin-red", 2, 2), ("tau", 1, 2),
                ("tau-moment", 1, 2), *CUT_RANK, ("dist", 2, 2)],
    (3, 3, None): [("star", 0, 3), ("lin-red", 2, 2), ("tau", 1, 2),
                   ("tau-moment", 1, 2), *FULL_RANK, ("dist", 2, 2)],
    (3, 3, 4): [("star", 0, 3), ("lin-red", 2, 2), ("tau", 1, 2),
                ("tau-moment", 1, 2), *CUT_RANK, ("dist", 2, 2)],
    (3, 4, None): [("star", 0, 2), ("tau", 1, 1), ("tau-moment", 1, 1),
                   *FULL_RANK],
    (3, 4, 4): [("star", 0, 2), ("tau", 1, 1), ("tau-moment", 1, 1),
                *CUT_RANK],
    (4093, 1, None): [("star", 0, 1), ("tau", 1, 1), ("tau-moment", 1, 1),
                      *FULL_RANK],
    (4093, 1, 4): [("star", 0, 1), ("tau", 1, 1), ("tau-moment", 1, 1),
                   *CUT_RANK],
}
FIELDS = sorted({(p, e) for p, e, _ in SCHEDULE})
SCHEDULE.update({(p, e, 0): [("star", 0, 0)] for p, e in FIELDS})

# trend's top degree when --n-max is not given.
TREND_TOP = {(3, 1): 7, (5, 1): 4, (7, 1): 3, (3, 2): 3, (5, 2): 2,
             (3, 3): 2, (3, 4): 2, (4093, 1): 2}


@pytest.mark.parametrize("p, e, n_max", sorted(
    SCHEDULE, key=lambda k: (k[0], k[1], -1 if k[2] is None else k[2])))
def test_verify_all_schedule(p, e, n_max):
    rows = {}
    for cell in build_cells(RunConfig(p=p, e=e, n_max=n_max), ["all"]):
        rows.setdefault(cell["check"], []).append(cell["n"])
    for degrees in rows.values():
        assert degrees == list(range(degrees[0], degrees[-1] + 1))
    assert [(check, ns[0], ns[-1]) for check, ns in rows.items()] == \
        SCHEDULE[p, e, n_max]


@pytest.mark.parametrize("p, e", FIELDS)
@pytest.mark.parametrize("n_max", [None, 0, 4])
def test_trend_top(monkeypatch, capsys, p, e, n_max):
    tops = []
    monkeypatch.setattr(cli, "deviation_trend",
                        lambda ring, top: tops.append(top) or [])
    argv = ["--p", str(p), "--e", str(e), "trend"]
    if n_max is not None:
        argv += ["--n-max", str(n_max)]
    assert cli.main(argv) == 0
    assert tops == [TREND_TOP[p, e] if n_max is None else n_max]
