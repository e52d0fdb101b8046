//! Domain configuration: the moral equivalent of an `xl` config file.
//!
//! Nephele extends the configuration with the maximum number of clones; "a
//! guest can be cloned only if its xl configuration file specifies a
//! non-zero value for the maximum number of clones" (§5.1).

use std::net::Ipv4Addr;

/// A virtual network interface specification.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VifSpec {
    /// The guest's IP on this interface.
    pub ip: Ipv4Addr,
}

/// Full domain configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DomainConfig {
    /// Domain name (must be unique when validation is enabled).
    pub name: String,
    /// RAM in MiB (Xen minimum of 4 MiB applies).
    pub memory_mib: u64,
    /// Number of vCPUs.
    pub vcpus: u32,
    /// Network interfaces.
    pub vifs: Vec<VifSpec>,
    /// 9pfs root filesystem export path in Dom0, if any.
    pub p9fs_export: Option<String>,
    /// Maximum clones this domain may create (0 disables cloning).
    pub max_clones: u32,
    /// Whether clones resume immediately after their second stage.
    pub resume_clones: bool,
}

impl DomainConfig {
    /// Starts a builder with the defaults of the paper's Mini-OS guest:
    /// 4 MiB of RAM, one vCPU, no devices, cloning disabled.
    pub fn builder(name: &str) -> DomainConfigBuilder {
        DomainConfigBuilder {
            cfg: DomainConfig {
                name: name.to_string(),
                memory_mib: 4,
                vcpus: 1,
                vifs: Vec::new(),
                p9fs_export: None,
                max_clones: 0,
                resume_clones: true,
            },
        }
    }

    /// Parses a minimal `xl`-style config: `key = value` lines, `#`
    /// comments; supported keys: `name`, `memory`, `vcpus`, `vif` (IP,
    /// repeatable), `p9fs`, `max_clones`, `resume_clones`.
    ///
    /// # Examples
    ///
    /// ```
    /// use toolstack::config::DomainConfig;
    ///
    /// let cfg = DomainConfig::parse(r#"
    ///     name = "udp-server"
    ///     memory = 4
    ///     vcpus = 1
    ///     vif = "10.0.0.2"
    ///     max_clones = 1000
    /// "#).unwrap();
    /// assert_eq!(cfg.name, "udp-server");
    /// assert_eq!(cfg.vifs.len(), 1);
    /// ```
    pub fn parse(text: &str) -> Result<DomainConfig, String> {
        let mut b = DomainConfig::builder("");
        let mut saw_name = false;
        for (lineno, raw) in text.lines().enumerate() {
            let line = raw.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            let (key, value) = line
                .split_once('=')
                .ok_or_else(|| format!("line {}: expected key = value", lineno + 1))?;
            let key = key.trim();
            let value = value.trim().trim_matches('"');
            match key {
                "name" => {
                    b.cfg.name = value.to_string();
                    saw_name = true;
                }
                "memory" => {
                    b.cfg.memory_mib = value
                        .parse()
                        .map_err(|_| format!("line {}: bad memory", lineno + 1))?;
                }
                "vcpus" => {
                    b.cfg.vcpus = value
                        .parse()
                        .map_err(|_| format!("line {}: bad vcpus", lineno + 1))?;
                }
                "vif" => {
                    let ip: Ipv4Addr = value
                        .parse()
                        .map_err(|_| format!("line {}: bad vif ip", lineno + 1))?;
                    b.cfg.vifs.push(VifSpec { ip });
                }
                "p9fs" => b.cfg.p9fs_export = Some(value.to_string()),
                "max_clones" => {
                    b.cfg.max_clones = value
                        .parse()
                        .map_err(|_| format!("line {}: bad max_clones", lineno + 1))?;
                }
                "resume_clones" => {
                    b.cfg.resume_clones = matches!(value, "1" | "true" | "yes");
                }
                other => return Err(format!("line {}: unknown key '{other}'", lineno + 1)),
            }
        }
        if !saw_name || b.cfg.name.is_empty() {
            return Err("missing name".to_string());
        }
        Ok(b.build())
    }

    /// Whether cloning is enabled for this configuration.
    pub fn cloning_enabled(&self) -> bool {
        self.max_clones > 0
    }
}

/// Fluent builder for [`DomainConfig`].
#[derive(Debug, Clone)]
pub struct DomainConfigBuilder {
    cfg: DomainConfig,
}

impl DomainConfigBuilder {
    /// Sets the RAM size in MiB.
    pub fn memory_mib(mut self, mib: u64) -> Self {
        self.cfg.memory_mib = mib;
        self
    }

    /// Sets the vCPU count.
    pub fn vcpus(mut self, n: u32) -> Self {
        self.cfg.vcpus = n;
        self
    }

    /// Adds a vif with the given IP.
    pub fn vif(mut self, ip: Ipv4Addr) -> Self {
        self.cfg.vifs.push(VifSpec { ip });
        self
    }

    /// Mounts a 9pfs root exported from the given Dom0 path.
    pub fn p9fs(mut self, export: &str) -> Self {
        self.cfg.p9fs_export = Some(export.to_string());
        self
    }

    /// Permits up to `n` clones.
    pub fn max_clones(mut self, n: u32) -> Self {
        self.cfg.max_clones = n;
        self
    }

    /// Controls whether clones resume automatically.
    pub fn resume_clones(mut self, yes: bool) -> Self {
        self.cfg.resume_clones = yes;
        self
    }

    /// Finishes the builder.
    pub fn build(self) -> DomainConfig {
        self.cfg
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_defaults_match_paper_guest() {
        let cfg = DomainConfig::builder("mini").build();
        assert_eq!(cfg.memory_mib, 4);
        assert_eq!(cfg.vcpus, 1);
        assert!(!cfg.cloning_enabled());
    }

    #[test]
    fn parse_full_config() {
        let cfg = DomainConfig::parse(
            r#"
            # the fig-4 guest
            name = "udp"
            memory = 4
            vcpus = 1
            vif = "10.0.0.2"
            p9fs = "/export/root"
            max_clones = 1000
            resume_clones = true
            "#,
        )
        .unwrap();
        assert_eq!(cfg.name, "udp");
        assert_eq!(cfg.vifs[0].ip, Ipv4Addr::new(10, 0, 0, 2));
        assert_eq!(cfg.p9fs_export.as_deref(), Some("/export/root"));
        assert_eq!(cfg.max_clones, 1000);
        assert!(cfg.cloning_enabled());
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(DomainConfig::parse("name = \"x\"\nbogus_key = 1").is_err());
        assert!(DomainConfig::parse("memory = 4").is_err(), "missing name");
        assert!(DomainConfig::parse("name = \"x\"\nmemory = lots").is_err());
        assert!(DomainConfig::parse("name = \"x\"\njust a line").is_err());
        // Keys of device classes the platform does not model are
        // unknown too.
        for key in ["vbd = 64", "vsock = true", "usb = \"1-1.4\""] {
            assert!(
                DomainConfig::parse(&format!("name = \"x\"\n{key}")).is_err(),
                "{key}"
            );
        }
    }
}
