"""Exact finite presheaves on the iterated-simplicial site, with the
standard tower of constructions (nerves, edge complexes, cells, suspension,
delooping, Whitehead operation, corner maps, monoidal towers) and windowed
verification of their structural identities."""

from .theta import (CompositionError, InvalidMorphismError, InvalidObjectError,
                    ThetaError, ThetaMorphism, ThetaObject, compose,
                    enumerate_morphisms, identity, normalize_morphism,
                    object_of, segal_faces, window_objects, zero_object)
from .presheaf import (ActionDomainError, Precat, PrecatMap, PresheafError,
                       PushoutData, Window, cell_label, check_functoriality,
                       coproduct, discrete, dump_json, empty,
                       enumerate_natural_maps, hom_precat, identity_map,
                       is_cofibration, iso_windowed, point, point_map,
                       precat_from_dump, product, pushout, slice_precat,
                       sub_precat, terminal_map)
from .constructions import (CellData, ConstructionError, CornerData,
                            FiniteCategory, InvalidArgumentError, MonoidObject,
                            PointedPrecat, cell, ck_monoidal, claim_fold,
                            delooping, monoid_from_table, nerve,
                            pushout_product, q_gluing, sigma_free,
                            square_decomposition, suspension, upsilon,
                            upsilon_face, upsilon_map, wedge01, whitehead,
                            z2_monoid)
from .analysis import (AnalysisError, MinDim0, NotStrictError, SegalReport,
                       TruncationUndefinedError, category_from_nerve,
                       equivalent_to_point, is_k_connected, min_dim_map0,
                       min_dim_sets, segal_check, tau_zero, truncate)
from .suite import IDENTITIES, SuiteResult, run_suite

__version__ = "0.1.0"
