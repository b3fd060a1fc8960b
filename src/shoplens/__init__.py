"""Frequent-shopper characterization from online-retail invoice lines.

Stages: ingest -> RFM value scoring -> LASSO feature selection -> sparse
non-negative factorization -> density clustering -> bipartite graph export.
"""

__version__ = "0.1.0"

from .ingest import (CleanedTransaction, CleaningRules, CustomerSegment,
                     InvoiceLine, InvoiceLines, PurchaseMatrix, Segment,
                     SegmentationConfig, Transactions, build_incidence_matrix,
                     clean_transactions, parse_invoice_csv, segment_customers)
from .rfm import (BoxCoxParams, RfmAttributes, RfmScore, RfmWeights,
                  boxcox_lambda_mle, boxcox_transform, compute_rfm_attributes,
                  weighted_rfm_score)
from .lasso import (DesignMatrix, DropExperimentCurve, FeatureRanking,
                    LassoModel, SelectionRule, SolverConfig,
                    cross_validate_alpha, drop_experiment, fit_lasso,
                    residual_diagnostics, select_features, standardize)
from .nmf import (Factorization, GridSearchResult, HoldoutMask, NmfConfig,
                  fit_nmf, grid_search, imputation_mse, make_holdout_mask,
                  normalize_dictionary, objective_value, top_items_per_element)
from .cluster import (ClusterLabeling, ClusterProfile, DensityParams,
                      cluster_rows, core_distances, extract_clusters,
                      mutual_reachability_mst, profile_clusters)
from .graph import (BipartiteGraph, GraphDocument, attach_embeddings,
                    build_affinity_graph, build_purchase_graph, export_graphml,
                    export_jsonl, import_jsonl, similar_nodes)
from .pipeline import PipelineConfig, emit_plot_data, run_all, run_stage
