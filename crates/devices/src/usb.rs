//! USB/IP passthrough: exclusive assignment of a host USB device.
//!
//! A passed-through USB device is a *physical* resource identified by
//! its host bus id (e.g. `1-1.4`). Exactly one domain may hold it at a
//! time — there is no way to duplicate a scanner. This is the device
//! class the unikernel-security survey motivates. Its clone heuristic is
//! [`crate::bus::CloneSemantics::DetachOnClone`]: the child comes up
//! *without* the device (no Xenstore state, no backend state, no rings,
//! so its device list names no USB device) while the parent keeps it
//! attached.

use sim_core::DomId;

/// The Dom0-side state of one passed-through USB device.
#[derive(Debug, Clone)]
pub struct UsbPassthrough {
    /// Owning domain.
    pub dom: DomId,
    /// Device index within the guest.
    pub devid: u32,
    /// Host bus id of the physical device (exclusive).
    pub busid: String,
    /// Whether the device is currently attached to its owner.
    pub attached: bool,
    /// URBs submitted since attach.
    pub urbs: u64,
}

impl UsbPassthrough {
    /// Attaches the physical device `busid` to `dom`.
    pub fn attach(dom: DomId, devid: u32, busid: &str) -> Self {
        UsbPassthrough {
            dom,
            devid,
            busid: busid.to_string(),
            attached: true,
            urbs: 0,
        }
    }

    /// Submits one URB; `false` when detached.
    pub fn submit_urb(&mut self) -> bool {
        if !self.attached {
            return false;
        }
        self.urbs += 1;
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn urbs_count_while_attached() {
        let mut u = UsbPassthrough::attach(DomId(1), 0, "1-1.4");
        assert!(u.submit_urb());
        assert!(u.submit_urb());
        assert_eq!(u.urbs, 2);
        u.attached = false;
        assert!(!u.submit_urb());
        assert_eq!(u.urbs, 2);
    }
}
