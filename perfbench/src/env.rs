//! What a set-up leaves behind for a workload to run against, and the
//! shared set-up steps (train a bundle, publish it to a catalog, load
//! it, start a router), and the client side of a connection.

use hdx_catalog::Catalog;
use hdx_core::PreparedContext;
use hdx_serve::{Router, RouterConfig};
use hdx_workload::BundleSpec;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::os::unix::net::UnixStream;
use std::path::Path;
use std::sync::Arc;

/// Catalog family label the benchmark publishes under.
const FAMILY: &str = "perfbench";

/// A set-up's products.
pub struct Env {
    /// The catalog every bundle of the set-up was published to.
    pub catalog: Catalog,
    /// Fingerprints of the published bundles, in publish order.
    pub fingerprints: Vec<u64>,
    /// The serving router, for the served workloads.
    pub router: Option<Arc<Router>>,
    /// Its loopback TCP address.
    pub addr: Option<SocketAddr>,
    /// The in-process search context, for the meta-search workload.
    pub prepared: Option<PreparedContext>,
}

impl Env {
    /// Opens a fresh catalog under `dir` and publishes one trained
    /// bundle per spec into it.
    pub fn publish(dir: &Path, specs: &[BundleSpec], jobs: usize) -> Result<Env, String> {
        let catalog = Catalog::open(&dir.join("catalog")).map_err(|e| format!("catalog: {e}"))?;
        let mut fingerprints = Vec::with_capacity(specs.len());
        for spec in specs {
            let path = spec
                .write_bundle(dir, jobs)
                .map_err(|e| format!("bundle {}: {e}", spec.file_name()))?;
            let bytes = std::fs::read(&path).map_err(|e| format!("{}: {e}", path.display()))?;
            let receipt = catalog
                .publish(spec.task.index() as u8, FAMILY, spec.seed, &bytes)
                .map_err(|e| format!("publish {}: {e}", spec.file_name()))?;
            fingerprints.push(receipt.fingerprint);
        }
        Ok(Env {
            catalog,
            fingerprints,
            router: None,
            addr: None,
            prepared: None,
        })
    }

    /// Starts a router with `jobs` workers and the catalog mounted,
    /// loads the first `load` published bundles through `cat:` refs,
    /// and, with `tcp`, serves it on a loopback port.
    pub fn serve(&mut self, jobs: usize, load: usize, tcp: bool) -> Result<(), String> {
        let router = Arc::new(Router::new(RouterConfig {
            jobs,
            ..RouterConfig::default()
        }));
        router.mount_catalog(self.catalog.clone());
        for &fp in &self.fingerprints[..load] {
            router
                .load_bundle_ref(&hdx_catalog::format_ref(fp))
                .map_err(|e| format!("load {}: {}", hdx_catalog::format_ref(fp), e.message()))?;
        }
        if tcp {
            let addr = hdx_workload::spawn_tcp_router(Arc::clone(&router))
                .map_err(|e| format!("bind loopback: {e}"))?;
            self.addr = Some(addr);
        }
        self.router = Some(router);
        Ok(())
    }

    /// The router, for workloads that started one.
    pub fn router(&self) -> &Arc<Router> {
        self.router.as_ref().expect("served workload has a router")
    }
}

/// A client socket: loopback TCP, or one end of an in-process Unix
/// socket pair.
pub enum Socket {
    /// Loopback TCP.
    Tcp(TcpStream),
    /// A Unix socket pair end.
    Unix(UnixStream),
}

impl Socket {
    fn try_clone(&self) -> std::io::Result<Socket> {
        Ok(match self {
            Socket::Tcp(s) => Socket::Tcp(s.try_clone()?),
            Socket::Unix(s) => Socket::Unix(s.try_clone()?),
        })
    }

    fn shutdown_write(&self) {
        let _ = match self {
            Socket::Tcp(s) => s.shutdown(Shutdown::Write),
            Socket::Unix(s) => s.shutdown(Shutdown::Write),
        };
    }
}

impl Read for Socket {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        match self {
            Socket::Tcp(s) => s.read(buf),
            Socket::Unix(s) => s.read(buf),
        }
    }
}

impl Write for Socket {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        match self {
            Socket::Tcp(s) => s.write(buf),
            Socket::Unix(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// One client connection: line writes, line reads.
pub struct Conn {
    reader: BufReader<Socket>,
    writer: Socket,
}

impl Conn {
    /// Connects to `addr` over TCP.
    pub fn tcp(addr: SocketAddr) -> std::io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Conn::over(Socket::Tcp(stream))
    }

    /// A client over `socket`.
    pub fn over(socket: Socket) -> std::io::Result<Conn> {
        Ok(Conn {
            reader: BufReader::new(socket.try_clone()?),
            writer: socket,
        })
    }

    /// Writes `text` (already newline-terminated) in one call.
    pub fn send(&mut self, text: &str) -> std::io::Result<()> {
        self.writer.write_all(text.as_bytes())
    }

    /// Reads one line without its newline; `None` at end of stream.
    pub fn recv(&mut self) -> std::io::Result<Option<String>> {
        let mut line = String::new();
        if self.reader.read_line(&mut line)? == 0 {
            return Ok(None);
        }
        if line.ends_with('\n') {
            line.pop();
        }
        Ok(Some(line))
    }

    /// Half-closes and drains to end of stream, so the server has
    /// finished the connection (and flushed its spans) on return.
    pub fn close(mut self) {
        self.writer.shutdown_write();
        while let Ok(Some(_)) = self.recv() {}
    }
}
