"""Baseline and comparator schedulers (paper §6 related work)."""

from .bernstein_gertner import (
    bernstein_gertner_labels,
    bernstein_gertner_priority,
    bernstein_gertner_schedule,
)
from .bruteforce import (
    best_stream_order,
    is_feasible_instance,
    optimal_makespan,
    optimal_schedule,
)
from .coffman_graham import (
    TWO_PROCESSOR,
    coffman_graham_labels,
    coffman_graham_priority,
    coffman_graham_schedule,
)
from .critical_path import gibbons_muchnick_order, gibbons_muchnick_schedule
from .global_sched import global_upper_bound, speculative_trace
from .hennessy_gross import hennessy_gross_order, hennessy_gross_schedule
from .list_scheduler import (
    block_orders_with_priority,
    critical_path_priority,
    fan_out_priority,
    schedule_with_priority,
    source_order_priority,
)
from .modulo import (
    ModuloScheduleResult,
    modulo_schedule,
    recurrence_mii,
    resource_mii,
)
from .table import SCHEDULERS
from .warren import warren_order, warren_priority, warren_schedule

__all__ = [
    "ModuloScheduleResult",
    "SCHEDULERS",
    "TWO_PROCESSOR",
    "bernstein_gertner_labels",
    "bernstein_gertner_priority",
    "bernstein_gertner_schedule",
    "best_stream_order",
    "block_orders_with_priority",
    "coffman_graham_labels",
    "coffman_graham_priority",
    "coffman_graham_schedule",
    "critical_path_priority",
    "fan_out_priority",
    "gibbons_muchnick_order",
    "gibbons_muchnick_schedule",
    "global_upper_bound",
    "hennessy_gross_order",
    "hennessy_gross_schedule",
    "is_feasible_instance",
    "modulo_schedule",
    "optimal_makespan",
    "optimal_schedule",
    "recurrence_mii",
    "resource_mii",
    "schedule_with_priority",
    "source_order_priority",
    "speculative_trace",
    "warren_order",
    "warren_priority",
    "warren_schedule",
]
