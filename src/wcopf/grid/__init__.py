from .dataset import (Dataset, Scaler, box_input_scaler, gen_output_scaler,
                      generate_dataset, load_dataset, save_dataset)
from .dcopf import DispatchSolution, injection_matrices, solve_dcopf
from .model import (BUILTIN_CASES, Generator, GridModel, Line, Load,
                    builtin_grid, grid_from_dict, load_grid)
from .ptdf import Ptdf, compute_ptdf
from .sampling import sample_demands_lhs

__all__ = [
    "BUILTIN_CASES", "Dataset", "DispatchSolution", "Generator", "GridModel",
    "Line", "Load", "Ptdf", "Scaler", "box_input_scaler", "builtin_grid",
    "compute_ptdf", "gen_output_scaler", "generate_dataset", "grid_from_dict",
    "injection_matrices", "load_dataset", "load_grid", "sample_demands_lhs",
    "save_dataset", "solve_dcopf",
]
