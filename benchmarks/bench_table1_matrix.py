"""Table 1: the example diagnostic matrix (nodes 3-4 benign faulty).

Regenerates the paper's worked example: two coincident benign faulty
senders (3 and 4) fail in both the diagnosed and the dissemination
round; the remaining nodes' syndromes plus ε rows vote to the
consistent health vector ``1 1 0 0``.

The benchmark times one full protocol pipeline on the simulated
cluster (fault injection -> dissemination -> aggregation -> voting) and
prints the matrix as in Table 1.
"""

from conftest import emit

from repro.core.bitmatrix import BitDiagnosticMatrix
from repro.core.config import uniform_config
from repro.core.service import DiagnosedCluster
from repro.core.syndrome import EPSILON
from repro.core.voting import h_maj
from repro.faults.scenarios import SenderFault

FAULT_ROUNDS = [6, 7, 8, 9]  # diagnosed + dissemination rounds


def build_and_vote():
    """Run the Table 1 scenario and return (matrix, cons_hv)."""
    config = uniform_config(4, penalty_threshold=10 ** 6,
                            reward_threshold=10 ** 6)
    dc = DiagnosedCluster(config, seed=0)
    for faulty in (3, 4):
        dc.cluster.add_scenario(SenderFault(faulty, kind="benign",
                                            rounds=FAULT_ROUNDS))
    dc.run_rounds(14)

    # Reconstruct the matrix node 1 voted on for diagnosed round 6:
    # rows are the syndromes disseminated about round 6 (ε for the
    # faulty senders whose dissemination also failed).
    matrix = BitDiagnosticMatrix(4)
    for sender in range(1, 5):
        if sender in (3, 4):
            matrix.set_row(sender, EPSILON)
        else:
            syndrome = dc.trace.first("syndrome", node=sender,
                                      round_index=7)
            matrix.set_row(sender, syndrome.data["syndrome"])
    cons_hv = tuple(h_maj(matrix.column(j)) for j in range(1, 5))
    assert matrix.analyse()[0] == cons_hv
    observed = dc.health_vectors(1)[6]
    assert observed == cons_hv == (1, 1, 0, 0), (observed, cons_hv)
    return matrix, cons_hv


def test_table1_matrix(benchmark):
    matrix, cons_hv = benchmark(build_and_vote)
    text = (
        "Table 1 — example diagnostic matrix (nodes 3 and 4 benign faulty)\n"
        + matrix.render()
        + "\nvoted cons_hv | " + "  ".join(map(str, cons_hv))
        + "\npaper          | 1  1  0  0"
    )
    emit("table1_matrix", text)
    assert cons_hv == (1, 1, 0, 0)
