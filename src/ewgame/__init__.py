"""Entanglement-witness game simulator.

Build witnesses for two- and three-qubit states, play the referee/player
payoff game with honest (quantum) or cheating (classical) strategies,
estimate the average payoff -Tr(rho W) by Monte Carlo, reconstruct the shared
state by linear-inversion tomography, and export the correlation-space
geometry of the standard figures.
"""

from .game import (
    ChshReport,
    GameConfig,
    Strategy,
    Transcript,
    chsh_value,
    classical_cheat_strategy,
    empirical_payoff,
    exact_average_payoff,
    honest_strategy,
    run_game,
)
from .geometry import (
    FigureData,
    export_figure_data,
    werner_line_intersection,
)
from .qcore import (
    DensityMatrix,
    bell_psi_plus,
    from_pauli_coefficients,
    ghz_state,
    hermitian_eigensystem,
    make_werner,
    maximally_mixed,
    partial_transpose,
    pauli_string,
    random_density_matrix,
    trace_distance,
)
from .tomography import (
    Estimate,
    IncompleteTomographyError,
    accumulate,
    project_psd,
    reconstruct,
    reconstruction_error,
)
from .witness import (
    CheckReport,
    PauliWeights,
    PPTStateError,
    Witness,
    check_witness,
    expected_payoff,
    fixed_chsh_witness,
    ghz_witness,
    ppt_witness,
    random_separable,
    strengthened_chsh_witness,
    werner_witness,
    xz_chsh_observables,
)

__version__ = "0.7.0"
