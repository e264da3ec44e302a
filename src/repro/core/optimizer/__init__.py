"""Segmented dynamic programming (paper Sec. 5)."""

from .deadline import Deadline, SearchDeadlineExceeded, check_deadline

__all__ = ["Deadline", "SearchDeadlineExceeded", "check_deadline"]
