"""Return address stack: predicts return targets at fetch."""


class ReturnAddressStack:
    """Fixed-depth circular return-address stack (overwrites on overflow)."""

    def __init__(self, depth=16):
        self.depth = depth
        self.stack = []

    def push(self, return_pc):
        self.stack.append(return_pc)
        if len(self.stack) > self.depth:
            self.stack.pop(0)

    def pop(self):
        """Predicted return target, or ``None`` when empty."""
        if self.stack:
            return self.stack.pop()
        return None
