"""gshare direction predictor (Table I: 10-bit global history, 32K entries)."""


class GsharePredictor:
    """Global-history XOR-indexed table of 2-bit saturating counters."""

    def __init__(self, history_bits=10, table_entries=32 * 1024):
        self.history_bits = history_bits
        self.table_entries = table_entries
        self.index_mask = table_entries - 1
        self.history_mask = (1 << history_bits) - 1
        # Fold the history into the *upper* index bits: small-footprint code
        # has all branch PCs in a narrow range, and XORing the history into
        # the dense low bits would alias hot branches onto one another for
        # many history values (destructive interference).
        self.history_shift = max(0, self.index_mask.bit_length() - history_bits)
        self.history = 0
        self.table = [2] * table_entries  # weakly taken
        self.predictions = 0
        self.correct = 0

    def _index(self, pc):
        return ((pc >> 2) ^ (self.history << self.history_shift)) & self.index_mask

    def predict(self, pc):
        """Predicted direction for the conditional branch at ``pc``."""
        return self.table[self._index(pc)] >= 2

    def update(self, pc, taken):
        """Train with the resolved outcome and shift the global history."""
        index = self._index(pc)
        counter = self.table[index]
        if taken:
            self.table[index] = min(3, counter + 1)
        else:
            self.table[index] = max(0, counter - 1)
        self.history = ((self.history << 1) | (1 if taken else 0)) & self.history_mask
        self.predictions += 1
        if (counter >= 2) == taken:
            self.correct += 1

    @property
    def accuracy(self):
        return self.correct / self.predictions if self.predictions else 1.0
