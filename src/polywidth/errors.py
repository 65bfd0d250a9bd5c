"""Shared exception types, and the n^m budget check that needs no numpy."""

DEFAULT_BUDGET = 10**6  # the default n^m budget of the tensor-power lift


class BudgetExceededError(RuntimeError):
    """An enumeration would exceed its configured size budget."""


def check_budget(n: int, m: int, budget: int) -> int:
    """n^m, or BudgetExceededError past ``budget`` (with no huge power)."""
    if m * (n.bit_length() - 1) < budget.bit_length() and n**m <= budget:
        return n**m
    raise BudgetExceededError(f"n^m = {n}^{m} exceeds the enumeration budget {budget}")
