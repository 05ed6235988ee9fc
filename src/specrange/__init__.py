"""specrange: spectra, numerical ranges, and boundary-eigenvalue
certificates for truncated lattice operators with complex potentials.

The pipeline: describe a potential symbolically (model), assemble the
truncated operator (model.assemble), compute its spectrum (linalg) and
numerical range (numrange), classify and certify boundary eigenvalues
(classify), decide truncation-independent absence criteria (criteria),
run 1D transfer-recurrence diagnostics (onedim), or manufacture certified
counterexamples (construct).  The cli module exposes all of it behind
scenario files with deterministic reports.
"""

__version__ = "0.1.0"

from .classify import (EigenClassification, NormalityVerdict, SplitVerdict,
                       classify, hildebrandt_certificate, split_certificate)
from .config import DEFAULT_TOLERANCES, Tolerances
from .construct import (CounterexampleBuild, DesignedEigenfunction,
                        build_counterexample, contractive_tail_ratio,
                        design_eigenfunction,
                        real_potential_from_eigenfunction)
from .criteria import (CriteriaParams, CriteriaReport, CriterionResult,
                       Target, evaluate_all)
from .exceptions import (BandRegimeError, BlowupError, CertificationError,
                         DecayCertificateError, DesignError,
                         DimensionLimitError, EigenSolverError,
                         HullDomainError, ProvenanceError, SchemaError,
                         SpecrangeError)
from .linalg import EigenPair, eig_general
from .model import (Alternating1DPotential, ConstantPotential, DecayBound,
                    GeometricDecayPotential, LatticeBox, LatticeOperator,
                    Operator, OperatorMatrix, PotentialSpec,
                    PowerDecayPotential, SeededRandomPotential,
                    SumPotential, TablePotential, TailInfo, assemble)
from .numrange import NumericalRangeHull, compute_hull
from .onedim import (ShootingResult, SolutionTrace, propagate,
                     shooting_l2_test)
from .scenario import (Scenario, dumps_canonical, encode_potential,
                       encode_scenario, load_scenario, loads_scenario,
                       parse_potential, parse_scenario)

__all__ = [
    "__version__",
    "EigenClassification", "NormalityVerdict", "SplitVerdict", "classify",
    "hildebrandt_certificate", "split_certificate",
    "DEFAULT_TOLERANCES", "Tolerances",
    "CounterexampleBuild", "DesignedEigenfunction", "build_counterexample",
    "contractive_tail_ratio", "design_eigenfunction",
    "real_potential_from_eigenfunction",
    "CriteriaParams", "CriteriaReport", "CriterionResult", "Target",
    "evaluate_all",
    "BandRegimeError", "BlowupError", "CertificationError",
    "DecayCertificateError", "DesignError", "DimensionLimitError",
    "EigenSolverError", "HullDomainError", "ProvenanceError", "SchemaError",
    "SpecrangeError", "EigenPair", "eig_general",
    "Alternating1DPotential", "ConstantPotential", "DecayBound",
    "GeometricDecayPotential", "LatticeBox", "LatticeOperator", "Operator",
    "OperatorMatrix",
    "PotentialSpec", "PowerDecayPotential", "SeededRandomPotential",
    "SumPotential", "TablePotential", "TailInfo", "assemble",
    "NumericalRangeHull", "compute_hull",
    "ShootingResult", "SolutionTrace", "propagate", "shooting_l2_test",
    "Scenario", "dumps_canonical", "encode_potential", "encode_scenario",
    "load_scenario", "loads_scenario", "parse_potential", "parse_scenario",
]
