//! The Xenstore access log.
//!
//! `oxenstored` logs every incoming request to rotating access-log files.
//! Rotation stalls the daemon while files are shuffled, producing the
//! latency spikes visible in Fig. 4 of the paper (first reported by
//! LightVM). With `xs_clone`, far fewer requests are issued per clone, so
//! "access logging also drops significantly and the number of spikes drops
//! to only 2" over 1000 clones.

/// A rotating request log. Only bookkeeping is kept (line counts), not the
/// text itself — the simulation needs the *costs*, not the bytes.
#[derive(Debug)]
pub struct AccessLog {
    enabled: bool,
    rotate_every: u64,
    lines_in_current: u64,
    lines_total: u64,
    rotations: u64,
}

impl AccessLog {
    /// Creates a log that rotates every `rotate_every` lines.
    pub fn new(rotate_every: u64) -> Self {
        AccessLog {
            enabled: true,
            rotate_every: rotate_every.max(1),
            lines_in_current: 0,
            lines_total: 0,
            rotations: 0,
        }
    }

    /// Appends one request line; returns `true` if this append triggered a
    /// rotation (the caller charges the stall).
    pub fn append(&mut self) -> bool {
        if !self.enabled {
            return false;
        }
        self.lines_total += 1;
        self.lines_in_current += 1;
        if self.lines_in_current >= self.rotate_every {
            self.lines_in_current = 0;
            self.rotations += 1;
            true
        } else {
            false
        }
    }

    /// Enables or disables logging.
    pub fn set_enabled(&mut self, on: bool) {
        self.enabled = on;
    }

    /// Number of rotations performed.
    pub fn rotations(&self) -> u64 {
        self.rotations
    }

    /// Total lines ever appended.
    pub fn lines_total(&self) -> u64 {
        self.lines_total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rotates_on_threshold() {
        let mut log = AccessLog::new(3);
        assert!(!log.append());
        assert!(!log.append());
        assert!(log.append(), "third line rotates");
        assert_eq!(log.rotations(), 1);
        assert!(!log.append());
        assert_eq!(log.lines_total(), 4);
    }

    #[test]
    fn disabled_log_is_free() {
        let mut log = AccessLog::new(1);
        log.set_enabled(false);
        for _ in 0..10 {
            assert!(!log.append());
        }
        assert_eq!(log.rotations(), 0);
        assert_eq!(log.lines_total(), 0);
    }
}
