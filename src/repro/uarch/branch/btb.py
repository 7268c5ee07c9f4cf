"""Branch target buffer: predicts taken-control-flow targets at fetch."""


class BranchTargetBuffer:
    """Direct-mapped tagged BTB."""

    def __init__(self, entries=4096):
        self.entries = entries
        self.index_mask = entries - 1
        self.tags = [None] * entries
        self.targets = [0] * entries

    def _index(self, pc):
        return (pc >> 2) & self.index_mask

    def predict(self, pc):
        """Predicted target for ``pc``, or ``None`` on a BTB miss."""
        index = self._index(pc)
        if self.tags[index] == pc:
            return self.targets[index]
        return None

    def update(self, pc, target):
        index = self._index(pc)
        self.tags[index] = pc
        self.targets[index] = target
