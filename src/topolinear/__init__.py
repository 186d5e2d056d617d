"""Distance-2 MDS codes: constructions, symmetry certificates, search."""

from .budget import DEFAULT_BUDGET, BudgetExceeded, SearchBudget
from .codes import (Loop, MdsCode, NAryQuasigroup, cyclic_loop, graph_code,
                    graph_of, is_associative, is_mds, make_cp, make_dihedral,
                    make_zp_z2, pair_code, parity_code, quasigroup_of, subcode,
                    twisted_graph_code)
from .constructions import (CompositionSpec, IteratedGroupSpec, MalformedInput,
                            QuadraticSpec, chase_to_zero_cp, composition_code,
                            composition_witness, cp_autotopism_a1,
                            cp_autotopism_a2, cp_autotopism_a3,
                            cp_regular_generators, cp_regular_witness,
                            iterated_code, quadratic_code, quadratic_witness,
                            solve_condition_c)
from .isometry import (Isometry, Isotopism, TransitivityCertificate,
                       autotopism_search, equivalent_codes,
                       is_isotopically_transitive, is_topolinear, mulclose,
                       search_isotopisms)
from .loops import find_non_g_loop_order6, is_g_loop, principal_isotope
from .classify_q4 import (classify, code_h, semilinearity_test,
                          standard_semilinear_code)
from .counting import (lower_bound_report, partition_asymptotic,
                       partition_exact, partitions_of, quadratic_form_count,
                       ratio_report)
from .serialize import (build_from_spec, load_certificate, load_code,
                        load_loop, save_certificate, save_code, save_loop)

__all__ = [n for n in dir() if not n.startswith("_")]
