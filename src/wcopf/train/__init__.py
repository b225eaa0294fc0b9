"""Training orchestration: plain, penalty, worst-case and sequential."""

from .config import TrainConfig, config_from_dict, load_config
from .loops import (MODES, EpochRecord, TrainReport, final_verification,
                    raw_violation, scaled_gen_box, train_gennn,
                    train_standard, train_wcnn, unit_box)
from .report_io import (load_report_records, load_summary, render_json,
                        save_report, summary_document, summary_path_for,
                        write_json)
from .sensitivity import SensitivityReport, layer_sensitivity
from .sequential import (STOP_MAX_ITERS, STOP_NO_VIOLATION,
                         STOP_SOLVER_FAILURE, STOP_VALIDATION_GUARD,
                         finetune_sequential)

__all__ = [
    "TrainConfig", "config_from_dict", "load_config",
    "MODES", "EpochRecord", "TrainReport", "final_verification",
    "raw_violation", "scaled_gen_box",
    "train_gennn", "train_standard", "train_wcnn", "unit_box",
    "load_report_records", "load_summary", "render_json", "save_report",
    "summary_document", "summary_path_for", "write_json",
    "SensitivityReport", "layer_sensitivity",
    "STOP_MAX_ITERS", "STOP_NO_VIOLATION", "STOP_SOLVER_FAILURE",
    "STOP_VALIDATION_GUARD",
    "finetune_sequential",
]
